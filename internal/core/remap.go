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

// Remap redistributes the data for new processor capabilities: a new
// layout is chosen by the arrangement search, every registered
// vector's owned section is moved according to the transfer plan, and
// the inspector rebuilds the schedule and local subgraph. Collective;
// all ranks must pass the same weights.
func (rt *Runtime) Remap(newWeights []float64) (RemapStats, error) {
	start := rt.clock.Now()
	if err := rt.quiescent("Remap"); err != nil {
		return RemapStats{}, err
	}
	if len(newWeights) != rt.c.Size() {
		return RemapStats{}, fmt.Errorf("core: %d weights for %d ranks", len(newWeights), rt.c.Size())
	}
	newLayout, err := rt.chooseLayout(newWeights)
	if err != nil {
		return RemapStats{}, err
	}
	stats := RemapStats{}
	stats.Moved, err = partition.Moved(rt.layout, newLayout)
	if err != nil {
		return RemapStats{}, err
	}
	stats.Messages, err = partition.Messages(rt.layout, newLayout)
	if err != nil {
		return RemapStats{}, err
	}
	if newLayout.Equal(rt.layout) {
		stats.Total = rt.clock.Now().Sub(start)
		return stats, nil
	}
	stats.Changed = true

	plan, err := redist.NewPlan(rt.layout, newLayout, rt.c.Rank())
	if err != nil {
		return RemapStats{}, err
	}
	if err := rt.moveVectors(plan); err != nil {
		return RemapStats{}, err
	}
	rt.layout = newLayout
	if err := rt.rebuild(); err != nil {
		return RemapStats{}, err
	}
	rt.fitVectors()
	stats.Inspector = rt.lastInspector
	stats.Total = rt.clock.Now().Sub(start)
	return stats, nil
}

// chooseLayout picks the new layout: the arrangement redist.Iterated
// finds to keep the most data in place, cut by vertex weights when the
// runtime carries them. A hierarchical configuration recuts
// hierarchically instead: the group-contiguous arrangement is what
// keeps the inter-group boundaries few and refined, and an arrangement
// search that scattered groups along the list would undo exactly that.
func (rt *Runtime) chooseLayout(newWeights []float64) (*partition.Layout, error) {
	if _, ok := rt.hierSpec(len(newWeights)); ok {
		return rt.CutLayout(newWeights)
	}
	if rt.itemWeights != nil {
		return redist.IteratedWeighted(rt.layout, rt.itemWeights, newWeights, nil)
	}
	return redist.Iterated(rt.layout, newWeights, nil)
}

// moveVectors executes the transfer plan for every registered vector
// within the runtime's own world.
func (rt *Runtime) moveVectors(plan *redist.Plan) error {
	return rt.moveVectorsOn(rt.c, tagRedist, plan)
}

// moveVectorsOn executes the transfer plan for every registered vector
// over an explicit carrier communicator — the runtime's own world for
// a Remap, the full parent world for a cross-world Rebind (whose
// transfer peers are carrier ranks). Vectors move in registration
// order on all ranks, so same-tag transfers pair up FIFO. Each vector
// moves into its spare array and keeps the one it leaves as the next
// spare, so a steady state of remaps allocates nothing here.
func (rt *Runtime) moveVectorsOn(c *comm.Comm, tag int, plan *redist.Plan) error {
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
			if err := c.Send(s.Peer, tag, buf); err != nil {
				return err
			}
		}
		for _, r := range plan.Recvs {
			want := int(r.Global.Len())
			buf := rt.wire(8 * want)
			n, err := c.RecvInto(r.Peer, tag, buf)
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
