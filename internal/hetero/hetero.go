// Package hetero simulates the nonuniform and adaptive computational
// environments of paper Section 2. The paper ran on five SUN4
// workstations, one of which was given a constant competing load; here
// each "workstation" is a goroutine whose effective speed is shaped by
// a per-rank speed factor and a schedule of competing loads. The
// solver amplifies its per-element work by the active factor, so the
// load monitor observes exactly what the paper's monitor observed: a
// changed computation time per data item.
package hetero

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Load is a competing load occupying a workstation for a span of
// iterations: while active it multiplies the rank's work per element
// by Factor (Factor 2 halves the effective speed, like one competing
// CPU-bound process on a timeshared workstation).
type Load struct {
	Rank      int
	Factor    float64
	FromIter  int // first iteration the load is active (inclusive)
	UntilIter int // last iteration the load is active (exclusive); <=0 means forever
}

// Outage marks a workstation unavailable — taken away entirely, not
// merely slowed — for a span of iterations: the adaptive environment
// of an elastic run. The runtime retires the rank at the first
// membership boundary at or after FromIter and may re-admit it at the
// first boundary at or after UntilIter; availability is evaluated at
// boundary granularity, so a short outage between boundaries goes
// unnoticed.
type Outage struct {
	Rank      int
	FromIter  int // first iteration the workstation is gone (inclusive)
	UntilIter int // first iteration it is back (exclusive); <=0 means forever
}

// TraceStep is one segment of a capability trace: from FromIter on
// (until the next step), the workstation delivers Capability relative
// to its base speed. Capability 1 is the base, 0.5 is half speed (the
// workstation does twice the work per element), and 0 marks the
// workstation unavailable — an outage segment, making Trace the
// generalization of the Outage window.
type TraceStep struct {
	FromIter   int
	Capability float64
}

// Trace is a piecewise-constant schedule of one workstation's
// delivered capability over the run — the adaptive environment as a
// time series instead of individual load/outage events. Before the
// first step the capability is 1. Several traces may target the same
// rank; their capabilities multiply (and compose with Speeds and
// Loads).
type Trace struct {
	Rank  int
	Steps []TraceStep
}

// At returns the trace's capability at an iteration (1 before the
// first step). Steps are validated to be in ascending FromIter order.
func (tr *Trace) At(iter int) float64 {
	cap := 1.0
	for _, s := range tr.Steps {
		if iter < s.FromIter {
			break
		}
		cap = s.Capability
	}
	return cap
}

// Env describes the simulated cluster.
type Env struct {
	// Speeds[i] is workstation i's base speed relative to workstation
	// 0 (1 = same, 0.5 = half as fast). A slower machine does
	// proportionally more work per element.
	Speeds []float64
	// Loads are competing loads; several may overlap.
	Loads []Load
	// Outages are availability windows during which workstations leave
	// the computation entirely; several may overlap. Workstation 0
	// hosts the membership coordinator and may not have outages.
	Outages []Outage
	// Traces are piecewise-constant capability schedules, composing
	// multiplicatively with Speeds and Loads. A zero-capability segment
	// takes the workstation away entirely (like an Outage), so
	// workstation 0 may not have one.
	Traces []Trace
}

// Uniform returns an environment of p equally fast unloaded
// workstations — the paper's static experiment (Table 4).
func Uniform(p int) *Env {
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = 1
	}
	return &Env{Speeds: speeds}
}

// PaperAdaptive returns the paper's adaptive experiment (Table 5): p
// equally fast workstations with a constant competing load of the
// given factor on workstation 0 from iteration 0 onward. The paper's
// sequential timings (97.61 s unloaded vs 290.93 s loaded) imply a
// factor of about 3.
func PaperAdaptive(p int, factor float64) *Env {
	env := Uniform(p)
	env.Loads = append(env.Loads, Load{Rank: 0, Factor: factor, FromIter: 0, UntilIter: 0})
	return env
}

// Validate checks the environment description.
func (e *Env) Validate() error {
	if len(e.Speeds) == 0 {
		return fmt.Errorf("hetero: no workstations")
	}
	for i, s := range e.Speeds {
		if !(s > 0) || math.IsInf(s, 1) {
			return fmt.Errorf("hetero: workstation %d has speed %g, want finite and > 0", i, s)
		}
	}
	for i, l := range e.Loads {
		if l.Rank < 0 || l.Rank >= len(e.Speeds) {
			return fmt.Errorf("hetero: load %d targets workstation %d of %d", i, l.Rank, len(e.Speeds))
		}
		if !(l.Factor >= 1) || math.IsInf(l.Factor, 1) {
			return fmt.Errorf("hetero: load %d has factor %g, want finite and >= 1", i, l.Factor)
		}
		if l.UntilIter > 0 && l.UntilIter <= l.FromIter {
			return fmt.Errorf("hetero: load %d spans [%d,%d)", i, l.FromIter, l.UntilIter)
		}
	}
	for i, o := range e.Outages {
		if o.Rank < 0 || o.Rank >= len(e.Speeds) {
			return fmt.Errorf("hetero: outage %d targets workstation %d of %d", i, o.Rank, len(e.Speeds))
		}
		if o.Rank == 0 {
			return fmt.Errorf("hetero: outage %d targets workstation 0, which hosts the membership coordinator and cannot go away", i)
		}
		if o.UntilIter > 0 && o.UntilIter <= o.FromIter {
			return fmt.Errorf("hetero: outage %d spans [%d,%d)", i, o.FromIter, o.UntilIter)
		}
	}
	for i, tr := range e.Traces {
		if tr.Rank < 0 || tr.Rank >= len(e.Speeds) {
			return fmt.Errorf("hetero: trace %d targets workstation %d of %d", i, tr.Rank, len(e.Speeds))
		}
		if len(tr.Steps) == 0 {
			return fmt.Errorf("hetero: trace %d has no steps", i)
		}
		for j, st := range tr.Steps {
			if !(st.Capability >= 0) || math.IsInf(st.Capability, 1) {
				return fmt.Errorf("hetero: trace %d step %d has capability %g, want finite and >= 0", i, j, st.Capability)
			}
			if st.Capability == 0 && tr.Rank == 0 {
				return fmt.Errorf("hetero: trace %d step %d takes workstation 0 away, which hosts the membership coordinator and cannot go", i, j)
			}
			if st.FromIter < 0 {
				return fmt.Errorf("hetero: trace %d step %d starts at iteration %d, want >= 0", i, j, st.FromIter)
			}
			if j > 0 && st.FromIter <= tr.Steps[j-1].FromIter {
				return fmt.Errorf("hetero: trace %d steps not in ascending iteration order at step %d", i, j)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the environment.
func (e *Env) Clone() *Env {
	c := &Env{
		Speeds:  append([]float64(nil), e.Speeds...),
		Loads:   append([]Load(nil), e.Loads...),
		Outages: append([]Outage(nil), e.Outages...),
	}
	for _, tr := range e.Traces {
		c.Traces = append(c.Traces, Trace{
			Rank:  tr.Rank,
			Steps: append([]TraceStep(nil), tr.Steps...),
		})
	}
	return c
}

// Elastic reports whether the environment takes workstations away at
// some point — an outage window or a zero-capability trace segment —
// and therefore whether a run over it needs the membership protocol.
func (e *Env) Elastic() bool {
	if len(e.Outages) > 0 {
		return true
	}
	for _, tr := range e.Traces {
		for _, st := range tr.Steps {
			if st.Capability == 0 {
				return true
			}
		}
	}
	return false
}

// Available reports whether a workstation is present at an iteration:
// not inside an outage window and not in a zero-capability trace
// segment.
func (e *Env) Available(rank, iter int) bool {
	for _, o := range e.Outages {
		if o.Rank != rank || iter < o.FromIter {
			continue
		}
		if o.UntilIter > 0 && iter >= o.UntilIter {
			continue
		}
		return false
	}
	for _, tr := range e.Traces {
		if tr.Rank == rank && tr.At(iter) == 0 {
			return false
		}
	}
	return true
}

// ActiveSet returns the ascending ranks available at an iteration —
// the membership the coordinator steers the active world toward.
func (e *Env) ActiveSet(iter int) []int {
	out := make([]int, 0, e.P())
	for r := 0; r < e.P(); r++ {
		if e.Available(r, iter) {
			out = append(out, r)
		}
	}
	return out
}

// FromJSON decodes a scenario file into a validated environment. The
// format mirrors Env: {"speeds": [...], "loads": [{"rank", "factor",
// "fromIter", "untilIter"}], "outages": [{"rank", "fromIter",
// "untilIter"}], "traces": [{"rank", "steps": [{"fromIter",
// "capability"}]}]}. Unknown fields are rejected so a typo fails
// loudly instead of silently running the wrong scenario.
func FromJSON(data []byte) (*Env, error) {
	var e Env
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("hetero: scenario: %w", err)
	}
	// Decode stops after the first JSON value; trailing content would
	// otherwise be dropped silently — the opposite of failing loudly.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("hetero: scenario: trailing content after the environment object")
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

// P returns the number of workstations.
func (e *Env) P() int { return len(e.Speeds) }

// WorkFactor returns the work multiplier for rank at the given
// iteration: 1/speed times the product of active competing-load
// factors, divided by the active trace capabilities. The solver
// repeats its per-element kernel proportionally, so a factor of 3
// makes the workstation behave three times slower. A zero-capability
// trace segment means the workstation is gone, not slow — the
// membership protocol retires it at the next boundary — so until that
// boundary it contributes no extra work factor here (the segment is
// skipped rather than divided by zero).
func (e *Env) WorkFactor(rank, iter int) float64 {
	f := 1 / e.Speeds[rank]
	for _, l := range e.Loads {
		if l.Rank != rank {
			continue
		}
		if iter < l.FromIter {
			continue
		}
		if l.UntilIter > 0 && iter >= l.UntilIter {
			continue
		}
		f *= l.Factor
	}
	for _, tr := range e.Traces {
		if tr.Rank != rank {
			continue
		}
		if cap := tr.At(iter); cap > 0 {
			f /= cap
		}
	}
	return f
}

// EffectiveSpeed returns 1/WorkFactor: the rank's delivered speed at
// the given iteration, the quantity load balancing tries to match the
// partition sizes to.
func (e *Env) EffectiveSpeed(rank, iter int) float64 {
	return 1 / e.WorkFactor(rank, iter)
}

// EffectiveSpeeds returns every rank's delivered speed at an
// iteration.
func (e *Env) EffectiveSpeeds(iter int) []float64 {
	out := make([]float64, e.P())
	for r := range out {
		out[r] = e.EffectiveSpeed(r, iter)
	}
	return out
}

// ChangePoints returns the sorted iterations at which some rank's
// work factor changes — the adaptation instants of an adaptive
// environment.
func (e *Env) ChangePoints() []int {
	set := map[int]bool{}
	for _, l := range e.Loads {
		set[l.FromIter] = true
		if l.UntilIter > 0 {
			set[l.UntilIter] = true
		}
	}
	for _, tr := range e.Traces {
		for _, st := range tr.Steps {
			set[st.FromIter] = true
		}
	}
	out := make([]int, 0, len(set))
	for it := range set {
		out = append(out, it)
	}
	sort.Ints(out)
	return out
}
