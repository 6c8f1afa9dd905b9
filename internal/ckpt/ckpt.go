// Package ckpt implements crash-stop fault tolerance for a session:
// lightweight peer checkpoints of vector state taken at check
// boundaries, and the recovery plan survivors follow to re-cut a dead
// rank's interval onto themselves and roll back to the last
// checkpoint. Detection is the session's boundary round: a member
// whose report misses the coordinator's receive deadline is dead.
//
// The protocol is buddy mirroring on a ring: at each checkpoint every
// active rank snapshots its own interval (all fields, plus the solver
// iteration) and mirrors the encoded snapshot to its successor in the
// active set. When rank r dies, its predecessor's successor — r's
// buddy, succ(r) — holds r's last snapshot and replays it into the
// survivors' re-cut layout during the recovery epoch. A failure is
// unrecoverable only when a rank and its buddy die inside the same
// detection window, or when the coordinator (world rank 0) dies.
package ckpt

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"stance/internal/ctl"
)

// Wire tags used by the checkpoint/recovery protocol, in the 0x7xx
// block (core uses 0x2xx, session 0x5xx, elastic 0x6xx,
// op handles 0x1000+).
const (
	// TagSnap carries encoded snapshots around the buddy ring.
	TagSnap = 0x701
	// TagRestoreBase + i tags restore transfers whose data
	// originates from the rank at position i of the pre-failure
	// active set, so a buddy relaying a dead rank's state to the
	// same receiver as its own never creates FIFO ambiguity.
	TagRestoreBase = 0x710
)

// ErrUnrecoverable marks a crash the protocol cannot recover from: the
// coordinator died, or a dead rank's checkpoint buddy died with it.
// Sessions fail loudly with this cause rather than continuing on lost
// state.
var ErrUnrecoverable = errors.New("ckpt: unrecoverable rank failure")

// ReadVerdict decodes the boundary verdict a member of an active set of
// p ranks received from the coordinator. Any payload it cannot read
// fails with an error wrapping ErrUnrecoverable, as an abort verdict
// does: a member that cannot read the verdict has no consistent way to
// continue.
func ReadVerdict(data []byte, p int) (ctl.Verdict, error) {
	v, err := ctl.DecodeVerdict(data, p)
	if err != nil {
		return ctl.Verdict{}, fmt.Errorf("ckpt: malformed verdict: %v: %w", err, ErrUnrecoverable)
	}
	return v, nil
}

// Kill schedules an injected crash for testing and chaos runs: the
// rank goes silent at the first boundary at or after Iter.
type Kill struct {
	Rank int `json:"rank"`
	Iter int `json:"iter"`
}

// Config enables crash-stop fault tolerance on a session.
type Config struct {
	// DetectTimeout is the receive deadline the coordinator applies
	// to each member's boundary report; a missed deadline declares the
	// member dead. Members wait (active+2)*DetectTimeout, saturated at
	// the largest Duration, for the verdict before presuming the
	// coordinator dead. It must comfortably exceed the per-segment
	// compute skew between ranks. Zero means 50ms; negative is an error.
	DetectTimeout time.Duration `json:"detect_timeout_ns"`
	// Kills is the injected crash schedule (empty in production).
	Kills []Kill `json:"kills,omitempty"`
}

// RecoveryEvent records one completed recovery epoch, appended to
// RunReport.Recoveries by the coordinator.
type RecoveryEvent struct {
	// Iter is the iteration of the boundary that detected the
	// failure.
	Iter int `json:"iter"`
	// RestoredIter is the checkpoint iteration the survivors rolled
	// back to (0 when the run restarted from initial conditions).
	RestoredIter int `json:"restored_iter"`
	// RollbackDepth is Iter - RestoredIter: the number of
	// iterations of lost work replayed after the restore.
	RollbackDepth int `json:"rollback_depth"`
	// Dead lists the world ranks declared dead at this boundary.
	Dead []int `json:"dead"`
	// Active lists the surviving active set the run continued on.
	Active []int `json:"active"`
	// Epoch is the membership epoch after the recovery transition.
	Epoch int `json:"epoch"`
	// DetectLatency is the virtual (or wall) time the coordinator
	// spent collecting the boundary's reports before its verdict.
	DetectLatency time.Duration `json:"detect_latency_ns"`
	// RestoredBytes is the total checkpoint payload written back
	// into vectors across all survivors (N * fields * 8 for a full
	// restore, 0 for a restart from initial conditions).
	RestoredBytes int64 `json:"restored_bytes"`
	// Duration is the time the recovery epoch itself took (rebind +
	// restore + re-checkpoint), excluding detection.
	Duration time.Duration `json:"duration_ns"`
}

// Holder returns the world rank holding r's mirrored snapshot: r's
// successor on the ring over active. With a single active rank there
// is no buddy and Holder returns r itself.
func Holder(r int, active []int) int {
	if i := slices.Index(active, r); i >= 0 {
		return active[(i+1)%len(active)]
	}
	return r
}
