package core

import (
	"fmt"

	"stance/internal/graph"
)

// The paper distinguishes adaptive *environments* (processor speeds
// change; handled by Remap) from adaptive *applications* whose
// "computational structure adapts after every few iterations"
// (footnote 1). For those, phase B — the inspector — re-executes
// whenever the structure changes. SetGraph is that entry point: the
// interaction structure is replaced, the layout and all vector data
// stay put, and the schedule and local subgraph are rebuilt.

// SetGraph replaces the computational graph with an adapted one (same
// vertex set, changed edges — e.g. after a refinement step changes
// which elements interact). The graph is given in the original vertex
// numbering, like New's; the runtime's locality transform is reapplied
// so existing data remains aligned. A parked runtime only swaps the
// graph: its next Bind or Rebind runs the inspector on it. Like Remap,
// SetGraph refuses while split-phase handles are live.
func (rt *Runtime) SetGraph(g *graph.Graph) error {
	if g == nil {
		return fmt.Errorf("core: nil graph")
	}
	if int64(g.N) != rt.n {
		return fmt.Errorf("core: adapted graph has %d vertices, runtime manages %d (vertex-set changes need a new runtime)",
			g.N, rt.n)
	}
	if err := rt.quiescent("SetGraph"); err != nil {
		return err
	}
	tg, err := permuteTopology(g, rt.perm)
	if err != nil {
		return err
	}
	rt.tg = tg
	if rt.Parked() {
		return nil
	}
	if err := rt.rebuild(); err != nil {
		return err
	}
	// Vectors keep their owned sections; ghost sections are resized
	// for the new schedule and refilled by the next Exchange.
	rt.fitVectors()
	return nil
}
