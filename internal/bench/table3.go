package bench

import (
	"context"
	"fmt"
	"time"

	"stance/internal/comm"
	"stance/internal/graph"
	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/partition"
	"stance/internal/sched"
)

// table3Paper holds the paper's published schedule-build times
// (seconds) for workstation sets {1,2}..{1-5}.
var table3Paper = map[int]map[string]float64{
	2: {"sort1": 0.247, "sort2": 0.236, "simple": 0.2},
	3: {"sort1": 0.171, "sort2": 0.169, "simple": 0.188},
	4: {"sort1": 0.136, "sort2": 0.130, "simple": 0.176},
	5: {"sort1": 0.131, "sort2": 0.125, "simple": 0.290},
}

// benchMesh returns the evaluation mesh: the paper-scale honeycomb
// (30269 vertices) or a reduced one in quick mode, already transformed
// by the spectral-style locality index the paper used (RCB here; both
// produce interval-friendly orders).
func benchMesh(opts Options) (*graph.Graph, error) {
	var g *graph.Graph
	var err error
	if opts.Quick {
		g, err = mesh.Honeycomb(100, 180)
	} else {
		g = mesh.Paper()
	}
	if err != nil {
		return nil, err
	}
	perm, err := order.RCB(g)
	if err != nil {
		return nil, err
	}
	return g.Permute(perm)
}

// refsFor extracts one rank's access pattern from a transformed graph.
func refsFor(g *graph.Graph, layout *partition.Layout, rank int) sched.Refs {
	iv := layout.Interval(rank)
	r := sched.Refs{Xadj: make([]int32, 1, iv.Len()+1)}
	for gg := iv.Lo; gg < iv.Hi; gg++ {
		for _, w := range g.Neighbors(int(gg)) {
			r.Adj = append(r.Adj, int64(w))
		}
		r.Xadj = append(r.Xadj, int32(len(r.Adj)))
	}
	return r
}

// MeasureScheduleBuild times one collective schedule construction on
// the given transformed mesh for p workstations. For the sorting
// strategies the build is communication-free and the cost is the
// slowest rank's; for the simple strategy the two message rounds run
// over the modeled Ethernet.
func MeasureScheduleBuild(g *graph.Graph, p int, strategy string, netScale float64) (time.Duration, error) {
	layout, err := partition.NewUniform(int64(g.N), p)
	if err != nil {
		return 0, err
	}
	switch strategy {
	case "sort1", "sort2":
		var maxRank time.Duration
		for rank := 0; rank < p; rank++ {
			refs := refsFor(g, layout, rank)
			start := time.Now()
			if strategy == "sort1" {
				_, err = sched.BuildSort1(layout, rank, refs)
			} else {
				_, err = sched.BuildSort2(layout, rank, refs)
			}
			if err != nil {
				return 0, err
			}
			if d := time.Since(start); d > maxRank {
				maxRank = d
			}
		}
		return maxRank, nil
	case "simple":
		w, err := comm.Open("inproc", p, comm.TransportOptions{Model: comm.Ethernet(netScale)})
		if err != nil {
			return 0, err
		}
		defer w.Close()
		allRefs := make([]sched.Refs, p)
		for rank := 0; rank < p; rank++ {
			allRefs[rank] = refsFor(g, layout, rank)
		}
		var elapsed time.Duration
		err = w.SPMD(context.Background(), func(c *comm.Comm) error {
			if err := c.Barrier(0x311); err != nil {
				return err
			}
			start := time.Now()
			if _, err := sched.BuildSimple(c, layout, allRefs[c.Rank()]); err != nil {
				return err
			}
			if err := c.Barrier(0x312); err != nil {
				return err
			}
			if c.Rank() == 0 {
				elapsed = time.Since(start)
			}
			return nil
		})
		return elapsed, err
	}
	return 0, fmt.Errorf("bench: unknown strategy %q", strategy)
}

// Table3 reproduces "Time required for building communication
// schedules": the sorting-based builders get cheaper as processors are
// added (each holds less data), while the simple strategy's message
// setups grow with the processor count — the crossover the paper
// reports between 3 and 4 workstations.
func Table3(opts Options) (*Table, error) {
	g, err := benchMesh(opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Table 3",
		Title: "Time to build communication schedules (seconds)",
		Header: []string{
			"Workstations",
			"Paper Sort1", "Paper Sort2", "Paper Simple",
			"Sort1", "Sort2", "Simple",
		},
		Notes: []string{
			fmt.Sprintf("mesh: %d vertices, %d edges; Ethernet model x%g", g.N, g.NumEdges(), opts.netScale()),
		},
	}
	reps := 5
	if opts.Quick {
		reps = 2
	}
	for _, p := range []int{2, 3, 4, 5} {
		row := []string{fmt.Sprintf("1..%d", p)}
		for _, s := range []string{"sort1", "sort2", "simple"} {
			row = append(row, seconds(table3Paper[p][s]))
		}
		for _, s := range []string{"sort1", "sort2", "simple"} {
			best := time.Duration(1 << 62)
			for r := 0; r < reps; r++ {
				d, err := MeasureScheduleBuild(g, p, s, opts.netScale())
				if err != nil {
					return nil, err
				}
				if d < best {
					best = d
				}
			}
			row = append(row, seconds(best.Seconds()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
