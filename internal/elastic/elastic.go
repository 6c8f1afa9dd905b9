// Package elastic implements elastic membership: the active rank set
// of a running computation shrinks and grows between iterations as
// workstations are taken away and given back — the half of the paper's
// "adaptive environment" that load remapping alone cannot absorb.
//
// The protocol is coordinator-led (world rank 0, which therefore can
// never retire) and piggybacks on the existing balance-check
// boundaries, in three steps per epoch transition:
//
//   - propose: at a boundary, the coordinator compares the current
//     active set against the desired one (availability windows in
//     hetero.Env, or an explicit resize request) and builds a Proposal
//     carrying the next membership, the outgoing layout (admitted
//     ranks were parked when it was cut and cannot know it) and the
//     incoming layout. The session sends it as the boundary round's
//     verdict (internal/ctl) to the active members, and the same bytes
//     to the parked ranks being admitted as their wake-up message.
//   - drain: the outgoing sub-world barriers, so every member has
//     fully completed the epoch's final iteration before data moves.
//   - commit: every participant migrates its vectors onto the
//     incoming layout over the parent world (core.Runtime.Rebind with
//     a cross-world redist plan), survivors and admitted ranks rebuild
//     schedules on a fresh sub-world of the new active set, and
//     retiring ranks park.
//
// Parked ranks block in a single receive on ctl.Tag — no polling, no
// barrier participation — until the coordinator either admits them (a
// Proposal) or ends the run. A rank failing mid-epoch cancels the SPMD
// section's shared context, which unblocks parked receives with a
// wrapped context.Canceled instead of deadlocking the world.
package elastic

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/ctl"
	"stance/internal/partition"
	"stance/internal/redist"
)

// TagDrain is the drain barrier over the outgoing sub-world (distinct
// from the runtime's, the balancer's and the control round's tags).
const TagDrain = 0x602

// Membership is one epoch's active set.
type Membership struct {
	// Epoch counts transitions since the session started (the initial
	// active set is epoch 0).
	Epoch int
	// Active lists the active world ranks in ascending order. It
	// always contains rank 0, the coordinator, so sub-world rank 0 is
	// world rank 0 in every epoch.
	Active []int
}

// Contains reports whether a world rank is active.
func (m Membership) Contains(rank int) bool { return m.SubRank(rank) >= 0 }

// SubRank returns the rank's position in the active set (its rank in
// the epoch's sub-world), or -1 if parked.
func (m Membership) SubRank(rank int) int { return slices.Index(m.Active, rank) }

// Proposal is an agreed epoch transition: everything a participant —
// including a rank that has been parked since before the outgoing
// layout existed — needs to commit it deterministically: the boundary
// iteration, the incoming epoch number and active set, the outgoing
// active set (the carrier ranks of Old), and the outgoing and incoming
// layouts. It is its own wire form, the verdict's ctl.Epoch.
type Proposal = ctl.Epoch

// Event records one committed membership transition. The JSON field
// names are stable API (the stanced job service serves reports over
// HTTP); durations marshal as integer nanoseconds.
type Event struct {
	// Iter is the global iteration count at which the epoch changed.
	Iter int `json:"iter"`
	// Epoch is the new epoch number.
	Epoch int `json:"epoch"`
	// Active is the new active set; Retired and Admitted are the world
	// ranks that left and joined relative to the previous epoch.
	Active   []int `json:"active"`
	Retired  []int `json:"retired"`
	Admitted []int `json:"admitted"`
	// MovedBytes and Msgs are the total migration payload and transfer
	// count across all ranks and registered vectors — identical on
	// every participant, computed without communication from the two
	// layouts.
	MovedBytes int64 `json:"moved_bytes"`
	Msgs       int   `json:"msgs"`
	// Local is this rank's own share of the migration.
	Local core.RebindStats `json:"local"`
	// Duration is the transition's wall time on this rank.
	Duration time.Duration `json:"duration_ns"`
}

// Controller is one world rank's handle on the epoch protocol. Every
// rank of the world holds one; world rank 0 is the coordinator.
type Controller struct {
	c *comm.Comm // world endpoint

	// mu guards cur and resize against cross-goroutine access: the run
	// loop advances cur on its own SPMD goroutine while monitoring
	// callers read Membership and Session.Resize writes resize.
	mu     sync.Mutex
	cur    Membership
	resize []int
}

// NewController builds a rank's controller with the initial active
// set, which must be ascending, duplicate-free, within the world and
// contain the coordinator (world rank 0).
func NewController(c *comm.Comm, initial []int) (*Controller, error) {
	if c == nil {
		return nil, fmt.Errorf("elastic: nil communicator")
	}
	if err := ValidActive(initial, c.Size()); err != nil {
		return nil, err
	}
	return &Controller{
		c:   c,
		cur: Membership{Epoch: 0, Active: append([]int(nil), initial...)},
	}, nil
}

// ValidActive checks an active set: ascending, duplicate-free, within
// [0, worldSize) and containing the coordinator.
func ValidActive(active []int, worldSize int) error {
	if len(active) == 0 {
		return fmt.Errorf("elastic: empty active set")
	}
	if active[0] != 0 {
		return fmt.Errorf("elastic: active set %v does not contain the coordinator (world rank 0)", active)
	}
	for i, r := range active {
		if r < 0 || r >= worldSize {
			return fmt.Errorf("elastic: active rank %d of %d", r, worldSize)
		}
		if i > 0 && r <= active[i-1] {
			return fmt.Errorf("elastic: active set %v is not strictly ascending", active)
		}
	}
	return nil
}

// Membership returns the rank's current view of the active set. Safe
// to call from any goroutine.
func (ct *Controller) Membership() Membership {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return Membership{Epoch: ct.cur.Epoch, Active: append([]int(nil), ct.cur.Active...)}
}

// ActiveHere reports whether this rank is in the current active set.
func (ct *Controller) ActiveHere() bool {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.cur.Contains(ct.c.Rank())
}

// RequestResize records an explicit active-set request; the
// coordinator applies it at the next membership boundary. Only the
// coordinator's controller consults it. Safe to call from any
// goroutine. With availability windows also configured, the
// environment re-asserts its own active set at the following boundary.
func (ct *Controller) RequestResize(active []int) error {
	if err := ValidActive(active, ct.c.Size()); err != nil {
		return err
	}
	ct.mu.Lock()
	ct.resize = append([]int(nil), active...)
	ct.mu.Unlock()
	return nil
}

// TakeResize returns and clears the pending resize request, or nil.
func (ct *Controller) TakeResize() []int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	r := ct.resize
	ct.resize = nil
	return r
}

// Boundary is the coordinator's propose step at an iteration
// boundary: want names the desired active set (nil means no change),
// oldLayout is the outgoing one, and cut builds the incoming layout for
// want. It returns nil when membership is unchanged, or the Proposal
// that the coordinator announces to the active members and the
// admitted ranks and that every participant commits with Transition.
func (ct *Controller) Boundary(iter int, want []int, oldLayout *partition.Layout,
	cut func(active []int) (*partition.Layout, error)) (*Proposal, error) {
	if ct.c.Rank() != 0 {
		return nil, fmt.Errorf("elastic: Boundary on rank %d; only the coordinator proposes", ct.c.Rank())
	}
	cur := ct.Membership()
	if want == nil || slices.Equal(want, cur.Active) {
		return nil, nil
	}
	if err := ValidActive(want, ct.c.Size()); err != nil {
		return nil, err
	}
	newLayout, err := cut(want)
	if err != nil {
		return nil, err
	}
	return &Proposal{Iter: iter, Epoch: cur.Epoch + 1, OldActive: cur.Active, Old: oldLayout,
		Active: append([]int(nil), want...), New: newLayout}, nil
}

// Park blocks a parked rank until the coordinator releases it: an
// admission returns the Proposal to commit with Transition, run end
// returns nil (the rank stays parked for the next run). A cancelled
// session context unblocks the receive with its error.
func (ct *Controller) Park() (*Proposal, error) {
	me := ct.c.Rank()
	if ct.ActiveHere() {
		return nil, fmt.Errorf("elastic: Park on active rank %d", me)
	}
	data, err := ct.c.Recv(0, ctl.Tag)
	if err != nil {
		return nil, err
	}
	prop, err := admission(data, me)
	ct.c.Release(data)
	return prop, err
}

// admission reads the verdict that woke parked rank me: the Proposal
// admitting it, nil for run end, and an error for anything else.
func admission(data []byte, me int) (*Proposal, error) {
	v, err := ctl.DecodeVerdict(data, 0)
	switch {
	case err != nil:
		return nil, err
	case v.RunEnd:
		return nil, nil
	case v.Epoch == nil || !slices.Contains(v.Epoch.Active, me):
		return nil, fmt.Errorf("elastic: parked rank %d woken by a verdict that does not admit it", me)
	}
	return v.Epoch, nil
}

// ReleaseParked ends the run for every parked rank (coordinator only):
// each gets a run-end verdict and returns from its Park call. The
// parked set stays parked across runs. Ranks in skip get nothing —
// they are known dead (crash-stop), so a message to them would sit
// unconsumed in their mailbox forever.
func (ct *Controller) ReleaseParked(skip []int) error {
	if ct.c.Rank() != 0 {
		return fmt.Errorf("elastic: ReleaseParked on rank %d", ct.c.Rank())
	}
	// Who is parked is decided under the lock, without copying the
	// active set: on a fixed-membership world nobody ever is, and the
	// call then costs no allocation and no message.
	var parked []int
	ct.mu.Lock()
	for r := 0; r < ct.c.Size(); r++ {
		if !ct.cur.Contains(r) && !slices.Contains(skip, r) {
			parked = append(parked, r)
		}
	}
	ct.mu.Unlock()
	if len(parked) == 0 {
		return nil
	}
	payload := ctl.EncodeVerdict(ctl.Verdict{RunEnd: true})
	for _, r := range parked {
		if err := ct.c.Send(r, ctl.Tag, payload); err != nil {
			return err
		}
	}
	return nil
}

// Transition commits an agreed proposal on one participating rank —
// an outgoing active member or an admitted rank. It drains the
// outgoing sub-world (oldSub; nil for admitted ranks, which have
// nothing to drain), migrates the runtime's vectors and rebinds it
// onto the incoming sub-world (nil Sub parks a retiring rank), and
// advances the membership. It returns the transition event and the
// rank's new sub-world endpoint (nil when retiring).
func (ct *Controller) Transition(prop *Proposal, oldSub *comm.Comm, rt *core.Runtime) (Event, *comm.Comm, error) {
	clock := ct.c.Clock()
	start := clock.Now()
	ev := Event{
		Iter:     prop.Iter,
		Epoch:    prop.Epoch,
		Active:   append([]int(nil), prop.Active...),
		Retired:  diffInts(prop.OldActive, prop.Active),
		Admitted: diffInts(prop.Active, prop.OldActive),
	}
	var err error
	ev.MovedBytes, ev.Msgs, err = CrossCost(prop, rt.NumVectors())
	if err != nil {
		return ev, nil, err
	}
	if oldSub != nil {
		// Drain: every outgoing member finishes the epoch's last
		// iteration before any data moves.
		if err := oldSub.Barrier(TagDrain); err != nil {
			return ev, nil, err
		}
	}
	var newSub *comm.Comm
	if slices.Contains(prop.Active, ct.c.Rank()) {
		newSub, err = ct.c.Sub(prop.Active)
		if err != nil {
			return ev, nil, err
		}
	}
	ev.Local, err = rt.Rebind(core.Rebind{
		Carrier:  ct.c,
		Sub:      newSub,
		Old:      prop.Old,
		New:      prop.New,
		OldProcs: prop.OldActive,
		NewProcs: prop.Active,
	})
	if err != nil {
		return ev, nil, err
	}
	ct.mu.Lock()
	ct.cur = Membership{Epoch: prop.Epoch, Active: prop.Active}
	ct.mu.Unlock()
	ev.Duration = clock.Now().Sub(start)
	return ev, newSub, nil
}

// Force advances the membership without the propose/drain/commit
// protocol — the recovery epoch's transition, where the departed
// ranks cannot drain or migrate anything and the survivors have
// already agreed on the next membership out of band (the coordinator's
// recovery verdict). Every survivor must call Force with the same
// membership.
func (ct *Controller) Force(next Membership) {
	ct.mu.Lock()
	ct.cur = next
	ct.mu.Unlock()
}

// CrossCost returns the total migration bytes and transfer count of a
// proposal for a runtime carrying nVecs registered vectors — the
// world-wide accounting, identical on every participant.
func CrossCost(prop *Proposal, nVecs int) (bytes int64, msgs int, err error) {
	moved, transfers, err := redist.CrossStats(prop.Old, prop.New, prop.OldActive, prop.Active)
	if err != nil {
		return 0, 0, err
	}
	return moved * 8 * int64(nVecs), transfers * nVecs, nil
}

// diffInts returns the elements of a not present in b.
func diffInts(a, b []int) []int {
	var out []int
	for _, x := range a {
		if !slices.Contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}
