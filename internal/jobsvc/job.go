package jobsvc

import (
	"context"
	"time"

	"stance/internal/graph"
	"stance/internal/session"
	"stance/internal/vtime"
)

// State is a job's lifecycle position.
type State string

const (
	// Queued: admitted but not yet placed on the pool.
	Queued State = "queued"
	// Running: a sub-world is carved out and the session is live.
	Running State = "running"
	// Done: the session completed all iterations.
	Done State = "done"
	// Failed: the session errored (including deadline expiry).
	Failed State = "failed"
	// Canceled: the caller canceled the job before it completed.
	Canceled State = "canceled"
)

// Finished reports whether the state is terminal.
func (s State) Finished() bool {
	return s == Done || s == Failed || s == Canceled
}

// job is the service's record of one submission. All fields after the
// immutable header are guarded by the service mutex.
type job struct {
	id   string
	spec Spec
	// cfg is the spec's validated session configuration (see onWorld).
	cfg session.Config
	g   *graph.Graph

	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	// granted are the pool ranks carved into the job's sub-world, in
	// sub-world rank order: granted[i] is sub-rank i's pool rank. Fixed
	// for the job's lifetime — elastic resizes move ranks in and out of
	// the active subset, never out of the grant.
	granted []int
	// activeSub are the currently active sub-world ranks (ascending,
	// always containing 0). The corresponding pool ranks are the ones
	// the job occupies.
	activeSub []int
	// resizePending marks a scheduler-requested resize that has not
	// committed yet; the scheduler won't stack another until it does.
	resizePending bool
	resizes       int

	ctx    context.Context
	cancel context.CancelCauseFunc
	timer  vtime.Timer

	sess   *session.Session
	report *session.RunReport
	result []float64
	err    error
}

// activePool returns the pool ranks the job currently occupies.
func (j *job) activePool() []int {
	out := make([]int, len(j.activeSub))
	for i, sr := range j.activeSub {
		out[i] = j.granted[sr]
	}
	return out
}

// Status is a job's externally visible state — the JSON served by
// GET /v1/jobs/{id}.
type Status struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State State  `json:"state"`
	Spec  Spec   `json:"spec"`
	// Granted and Active are pool ranks: the sub-world the job was
	// placed on and the subset it currently occupies.
	Granted []int `json:"granted,omitempty"`
	Active  []int `json:"active,omitempty"`
	// Resizes counts committed membership transitions.
	Resizes int `json:"resizes"`
	// Submitted/Started/Finished are service-clock timestamps (the
	// zero time until reached).
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	// Error is set on failed jobs.
	Error string `json:"error,omitempty"`
	// Report is the session's consolidated accounting, present once the
	// job is done.
	Report *session.RunReport `json:"report,omitempty"`
	// Result is the solution vector in original vertex order, present
	// when the spec asked for it.
	Result []float64 `json:"result,omitempty"`
}

// statusLocked snapshots the job under the service mutex.
func (j *job) statusLocked() *Status {
	st := &Status{
		ID:        j.id,
		Name:      j.spec.Name,
		State:     j.state,
		Spec:      j.spec,
		Resizes:   j.resizes,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Report:    j.report,
		Result:    j.result,
	}
	if j.granted != nil {
		st.Granted = append([]int(nil), j.granted...)
	}
	if j.state == Running {
		st.Active = j.activePool()
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}
