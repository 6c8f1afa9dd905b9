package bench

import (
	"context"
	"fmt"
	"time"

	"stance/internal/comm"
	"stance/internal/graph"
	"stance/internal/session"
	"stance/internal/vtime"
)

// The hierarchical twin of Table 4: the same parallel loop, but on a
// two-level cluster — node groups joined by a slower shared link (the
// paper's Section 4 nonuniform network). Table H1 sweeps the
// inter-group slowdown and shows the crossover where the
// hierarchy-aware cut overtakes the flat cut.
//
// The twin always runs on a simulated clock with virtualized compute:
// the effect it measures is a property of the network model, and the
// virtual clock makes every duration exact and deterministic
// regardless of how loaded the machine is.

// hierProcs is the twin's cluster size; -groups on stance-bench sets
// the group count.
const hierProcs = 4

// hierGroupCount resolves the configured group count (default 2).
func hierGroupCount(opts Options) int {
	if opts.Groups > 1 {
		return opts.Groups
	}
	return 2
}

// dumbbellMesh is the nonuniform-network stress graph: two bands of a
// and b vertices (each vertex joined to its k nearest successors
// within the band) connected by a single bridge edge. In identity
// order a cut inside a band crosses ~k²/2 edges; the cut at the bridge
// crosses one. With a != b the flat equal cut lands inside a band, so
// only a boundary-refining cut finds the bridge.
func dumbbellMesh(a, b, k int) (*graph.Graph, error) {
	n := a + b
	var edges []graph.Edge
	band := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i + 1; j <= i+k && j < hi; j++ {
				edges = append(edges, graph.Edge{U: int32(i), V: int32(j)})
			}
		}
	}
	band(0, a)
	band(a, n)
	edges = append(edges, graph.Edge{U: int32(a - 1), V: int32(a)})
	return graph.FromEdges(n, edges, nil)
}

// hierCompute resolves the virtualized per-element compute cost. The
// default is deliberately heavy: the hierarchy-aware cut trades
// balance for slow-link bytes (the refined boundary gives one group
// more vertices), so a realistic compute-to-network ratio is exactly
// what lets the flat cut win on a uniform network and lose on a
// nonuniform one — the crossover H1 exists to show.
func hierCompute(opts Options) time.Duration {
	if opts.ComputeCost > 0 {
		return opts.ComputeCost
	}
	return 400 * time.Microsecond
}

// MeasureHierRun runs the parallel loop on a two-level world whose
// inter-group link is interScale× the modeled Ethernet, with either
// the hierarchy-aware cut or (flatCut) the flat reference cut, and
// returns the report — Wall and InterBytes are the columns the twin
// prints.
func MeasureHierRun(g *graph.Graph, opts Options, p, groups, iters int,
	interScale float64, flatCut bool) (*session.RunReport, error) {
	topo, err := comm.ContiguousGroups(p, groups)
	if err != nil {
		return nil, err
	}
	s, err := session.New(context.Background(), g, session.Config{
		Procs: p,
		Net: comm.TransportOptions{
			Clock:      vtime.NewSim(),
			Model:      comm.Ethernet(opts.netScale()),
			Topology:   topo,
			InterModel: comm.Ethernet(opts.netScale() * interScale),
		},
		FlatCut:     flatCut,
		ComputeCost: hierCompute(opts),
		WorkRep:     1,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Run(iters)
}

// TableHierStatic is Table 4's two-level twin: the static loop on a
// dumbbell mesh across increasing inter-group slowdowns, flat cut vs
// hierarchy-aware cut. On a uniform network the flat cut's better
// balance wins by a hair; as the slow link thins, the wide ghost
// frontier the flat cut drags across it takes over and the
// hierarchical cut — which slides the group boundary onto the
// dumbbell's bridge — crosses over to win.
func TableHierStatic(opts Options) (*Table, error) {
	groups := hierGroupCount(opts)
	iters := 30
	scales := []float64{1, 4, 16, 64}
	if opts.Quick {
		iters = 10
		scales = []float64{1, 16}
	}
	g, err := dumbbellMesh(1100, 900, 300)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Table H1",
		Title: "Static parallel loop on a two-level cluster: flat vs hierarchy-aware cut",
		Header: []string{
			"Inter-group slowdown", "Flat cut", "Hier cut", "Speedup",
			"Flat slow-link bytes", "Hier slow-link bytes",
		},
		Notes: []string{
			fmt.Sprintf("%d workstations in %d groups, %d iterations, dumbbell mesh of %d vertices, Ethernet model x%g, virtual clock",
				hierProcs, groups, iters, g.N, opts.netScale()),
			"the hierarchy-aware cut refines the group boundary onto the dumbbell's bridge (1 cut edge) at the price of a larger group; the flat cut balances perfectly but drags a ~300-vertex ghost frontier across the slow link",
			"speedup < 1 on the uniform network (balance wins), > 1 once the link slows (slow-link bytes win) — the crossover hierarchy-aware cutting exists for",
		},
	}
	for _, scale := range scales {
		flat, err := MeasureHierRun(g, opts, hierProcs, groups, iters, scale, true)
		if err != nil {
			return nil, err
		}
		hier, err := MeasureHierRun(g, opts, hierProcs, groups, iters, scale, false)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("x%g", scale),
			seconds(flat.Wall.Seconds()), seconds(hier.Wall.Seconds()),
			fmt.Sprintf("%.2f", flat.Wall.Seconds()/hier.Wall.Seconds()),
			fmt.Sprintf("%d", flat.InterBytes), fmt.Sprintf("%d", hier.InterBytes),
		})
	}
	return t, nil
}
