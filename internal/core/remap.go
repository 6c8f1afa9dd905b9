package core

import (
	"fmt"
	"slices"
	"time"

	"stance/internal/comm"
	"stance/internal/partition"
	"stance/internal/redist"
)

// RemapStats reports what a Remap cost and moved (paper Sections 3.4
// and 3.5).
type RemapStats struct {
	// Moved is the number of elements that crossed the network.
	Moved int64
	// Messages is the number of point-to-point transfers generated.
	Messages int
	// Total is the wall time of the whole remap on this rank,
	// including data movement and the inspector rebuild.
	Total time.Duration
	// Inspector is the rebuild portion: all of Phase B (see
	// Runtime.LastInspectorTime).
	Inspector time.Duration
	// Changed reports whether the layout actually changed.
	Changed bool
}

// Remap redistributes the data for new processor capabilities: it
// chooses the layout with ChooseLayout and applies it with RemapTo.
// Collective; all ranks must pass the same weights. A session's ranks
// do not call it: the controller chooses the layout once and every
// member applies it with RemapTo.
func (rt *Runtime) Remap(newWeights []float64) (RemapStats, error) {
	newLayout, err := rt.ChooseLayout(newWeights)
	if err != nil {
		return RemapStats{}, err
	}
	return rt.RemapTo(newLayout)
}

// RemapTo redistributes the data onto a chosen layout: every
// registered vector's owned section moves according to the transfer
// plan, and the inspector rebuilds the schedule and local subgraph —
// Rebind's step, within the runtime's own world. Collective; all ranks
// must pass equal layouts, over the runtime's elements and world.
func (rt *Runtime) RemapTo(newLayout *partition.Layout) (RemapStats, error) {
	start := rt.clock.Now()
	if err := rt.quiescent("Remap"); err != nil {
		return RemapStats{}, err
	}
	if rt.Parked() || newLayout == nil {
		return RemapStats{}, fmt.Errorf("core: a remap needs an active runtime and a layout")
	}
	// Moved checks the layout covers the runtime's elements and ranks.
	stats := RemapStats{}
	var err error
	if stats.Moved, err = partition.Moved(rt.layout, newLayout); err != nil {
		return RemapStats{}, err
	}
	if stats.Messages, err = partition.Messages(rt.layout, newLayout); err != nil {
		return RemapStats{}, err
	}
	if !newLayout.Equal(rt.layout) {
		procs := identityArrangement(rt.c.Size())
		rb := Rebind{Carrier: rt.c, Sub: rt.c, Old: rt.layout, New: newLayout, OldProcs: procs, NewProcs: procs}
		if _, err := rt.Rebind(rb); err != nil {
			return RemapStats{}, err
		}
		stats.Changed, stats.Inspector = true, rt.lastInspector
	}
	stats.Total = rt.clock.Now().Sub(start)
	return stats, nil
}

// ChooseLayout picks the layout a remap to newWeights moves to: the
// arrangement redist.Iterated finds to keep the most data in place,
// cut by vertex weights when the runtime carries them. A hierarchical
// configuration recuts hierarchically instead: the group-contiguous
// arrangement is what keeps the inter-group boundaries few and
// refined, and an arrangement search that scattered groups along the
// list would undo exactly that. It is the balance controller's half
// of a remap (loadbal.Balancer.Decide); it communicates nothing.
func (rt *Runtime) ChooseLayout(newWeights []float64) (*partition.Layout, error) {
	if rt.Parked() || len(newWeights) != rt.c.Size() {
		return nil, fmt.Errorf("core: %d weights for %d ranks, or a parked runtime", len(newWeights), rt.c.Size())
	}
	if _, ok := rt.hierSpec(len(newWeights)); ok {
		return rt.CutLayout(newWeights)
	}
	if rt.itemWeights != nil {
		return redist.IteratedWeighted(rt.layout, rt.itemWeights, newWeights, nil)
	}
	return redist.Iterated(rt.layout, newWeights, nil)
}

// moveVectors executes a Rebind's transfer plan for every registered
// vector over its carrier communicator — the runtime's own world for a
// remap, the full parent world for a membership transition (transfer
// peers are carrier ranks). Vectors move in registration order on all
// ranks, so transfers pair up FIFO. Each vector moves into its spare
// array and keeps the one it leaves as the next spare, so a steady
// state of remaps allocates nothing here.
func (rt *Runtime) moveVectors(c *comm.Comm, plan *redist.Plan) error {
	for _, v := range rt.vecs {
		oldLocal := v.Data[:plan.Old.Len()]
		// Every element is written below — kept range or a receive — so
		// the spare's old contents need no clearing. The ghost section
		// fitVectors appends is about as long as the current one.
		nNew := int(plan.New.Len())
		newLocal := slices.Grow(v.spare[:0], nNew+rt.nGhosts())[:nNew]
		if err := plan.ApplyLocal(oldLocal, newLocal); err != nil {
			return err
		}
		for _, s := range plan.Sends {
			off := s.Global.Lo - plan.Old.Lo
			seg := oldLocal[off : off+s.Global.Len()]
			buf := rt.wire(8 * len(seg))
			comm.PutF64s(buf, seg)
			if err := c.Send(s.Peer, tagRebind, buf); err != nil {
				return err
			}
		}
		for _, r := range plan.Recvs {
			want := int(r.Global.Len())
			buf := rt.wire(8 * want)
			n, err := c.RecvInto(r.Peer, tagRebind, buf)
			if err != nil {
				return err
			}
			if n != 8*want {
				return fmt.Errorf("core: redistribution from %d carried %d values, want %d",
					r.Peer, n/8, want)
			}
			dst := newLocal[r.Global.Lo-plan.New.Lo:][:want]
			if err := comm.GetF64s(dst, buf); err != nil {
				return err
			}
		}
		// Park the new local section; ghost space is re-attached once
		// the new schedule is known.
		v.Data, v.spare = newLocal, v.Data
	}
	return nil
}

// wire returns the runtime's redistribution wire buffer sized to n
// bytes. A Send copies its payload before it returns, so one buffer
// serves every transfer of a move in turn.
func (rt *Runtime) wire(n int) []byte {
	rt.wireScratch = slices.Grow(rt.wireScratch[:0], n)[:n]
	return rt.wireScratch
}
