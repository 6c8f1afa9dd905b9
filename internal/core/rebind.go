package core

import (
	"fmt"
	"time"

	"stance/internal/comm"
	"stance/internal/partition"
	"stance/internal/redist"
)

// tagRebind carries the migration data of every layout change: a
// membership transition's across the parent world and a remap's within
// the runtime's own. Each is a collective that receives all it expects
// before it returns, so per-(source, tag) FIFO order pairs them up.
const tagRebind = 0x206

// Rebind describes one rank's side of a membership transition: data
// migrates from the Old layout (distributed over OldProcs) to the New
// layout (over NewProcs) across the Carrier world, and the runtime
// comes back bound to Sub — its endpoint in the incoming active
// sub-world — or parks when Sub is nil.
type Rebind struct {
	// Carrier is this rank's endpoint in the world the migration data
	// travels over (the full parent world: it is the only communicator
	// spanning both the outgoing and the incoming active sets).
	Carrier *comm.Comm
	// Sub is this rank's endpoint in the incoming active sub-world, or
	// nil when the rank is retiring: it then sends its interval away
	// and parks.
	Sub *comm.Comm
	// Old and New are the outgoing and incoming layouts. Old is passed
	// explicitly rather than read from the runtime because an admitted
	// rank was parked when Old was cut and only learns it from the
	// coordinator's proposal.
	Old, New *partition.Layout
	// OldProcs and NewProcs map layout processor indices to carrier
	// ranks.
	OldProcs, NewProcs []int
}

// RebindStats reports one rank's local share of a membership
// transition. JSON field names are stable API; durations marshal as
// integer nanoseconds.
type RebindStats struct {
	// MovedBytes and Msgs count the migration payload this rank sent.
	MovedBytes int64 `json:"moved_bytes"`
	Msgs       int   `json:"msgs"`
	// Total is the wall time of the whole rebind on this rank;
	// Inspector is the schedule-rebuild portion (zero when parking).
	Total     time.Duration `json:"total_ns"`
	Inspector time.Duration `json:"inspector_ns"`
}

// Rebind migrates the runtime across a membership transition: every
// registered vector's owned section moves to the incoming layout over
// the carrier world, then the runtime either rebuilds its schedule on
// the new sub-world or parks. All ranks of the union of the outgoing
// and incoming active sets must call Rebind with the same layouts and
// mappings; parked ranks that stay parked do not participate.
func (rt *Runtime) Rebind(rb Rebind) (RebindStats, error) {
	start := rt.clock.Now()
	stats := RebindStats{}
	if rb.Carrier == nil {
		return stats, fmt.Errorf("core: rebind without a carrier")
	}
	if err := rt.quiescent("rebind"); err != nil {
		return stats, err
	}
	if rb.Old == nil || rb.New == nil {
		return stats, fmt.Errorf("core: rebind without layouts")
	}
	if rb.New.N() != rt.n {
		return stats, fmt.Errorf("core: rebind layout covers %d elements, want %d", rb.New.N(), rt.n)
	}
	if !rt.Parked() && !rt.layout.Equal(rb.Old) {
		return stats, fmt.Errorf("core: rebind old layout does not match the runtime's")
	}
	plan, err := redist.NewCrossPlan(rb.Old, rb.New, rb.OldProcs, rb.NewProcs, rb.Carrier.Rank())
	if err != nil {
		return stats, err
	}
	if rt.Parked() && plan.Old.Len() > 0 {
		return stats, fmt.Errorf("core: parked rank %d owns %d elements in the outgoing layout",
			rb.Carrier.Rank(), plan.Old.Len())
	}
	if rb.Sub == nil && plan.New.Len() > 0 {
		return stats, fmt.Errorf("core: retiring rank %d owns %d elements in the incoming layout",
			rb.Carrier.Rank(), plan.New.Len())
	}
	if err := rt.moveVectors(rb.Carrier, plan); err != nil {
		return stats, err
	}
	stats.MovedBytes = plan.MovedBytes() * int64(len(rt.vecs))
	stats.Msgs = len(plan.Sends) * len(rt.vecs)

	if rb.Sub == nil {
		// Retire: the vectors were emptied by the move (New is empty);
		// drop the schedule and go dormant on the carrier until a
		// future Rebind re-admits the rank. The inspector's storage
		// stays for that day.
		rt.c = rb.Carrier
		rt.layout, rt.sch = nil, nil
		stats.Total = rt.clock.Now().Sub(start)
		return stats, nil
	}
	rt.c = rb.Sub
	rt.layout = rb.New
	if err := rt.rebuild(); err != nil {
		return stats, err
	}
	rt.fitVectors()
	stats.Inspector = rt.lastInspector
	stats.Total = rt.clock.Now().Sub(start)
	return stats, nil
}
