package bench

import (
	"context"
	"fmt"

	"stance/internal/comm"
	"stance/internal/graph"
	"stance/internal/hetero"
	"stance/internal/loadbal"
	"stance/internal/metrics"
	"stance/internal/session"
)

// table4Paper holds the paper's published static-environment times and
// efficiencies for 500 iterations.
var table4Paper = map[int][2]float64{
	1: {97.61, 1}, 2: {55.68, 0.88}, 3: {42.27, 0.77}, 4: {34.06, 0.72}, 5: {31.50, 0.62},
}

// staticIters and staticWorkRep set the experiment scale: the paper
// ran 500 iterations at SUN4 speed; we run fewer iterations of an
// amplified kernel so compute-to-communication ratios stay in the
// paper's regime.
func staticScale(opts Options) (iters, workRep int) {
	if opts.Quick {
		return 5, 200
	}
	// workRep 2500 puts the sequential per-iteration time near the
	// paper's ~195 ms (97.61s / 500 iterations), so the
	// compute-to-Ethernet ratio lands in the paper's regime.
	return 20, 2500
}

// MeasureStaticRun runs iters solver iterations on p equally fast,
// unloaded workstations over the modeled Ethernet, returning the
// session report (Wall is the Run's SPMD section, start to join; Exec the
// executor's own traffic counters) at executor depth depth.
func MeasureStaticRun(g *graph.Graph, p, iters, workRep int, netScale float64, depth int) (*session.RunReport, error) {
	return measureRun(g, hetero.Uniform(p), p, iters, workRep,
		Options{NetScale: netScale, Pipeline: depth}, nil)
}

// measureRun executes an iterative solve through the session driver
// and returns its report (Wall is the Run's SPMD section, start to
// join, on opts.Net.Clock). bal (if non-nil) enables the paper's periodic
// load-balance protocol: a check every 10 iterations, remapping when
// profitable.
func measureRun(g *graph.Graph, env *hetero.Env, p, iters, workRep int,
	opts Options, bal *loadbal.Config) (*session.RunReport, error) {
	net := opts.Net
	net.Model = comm.Ethernet(opts.netScale())
	s, err := session.New(context.Background(), g, session.Config{
		Procs:       p,
		Transport:   opts.Transport,
		Net:         net,
		ComputeCost: opts.ComputeCost,
		Env:         env,
		WorkRep:     workRep,
		Pipeline:    opts.Pipeline,
		Fields:      opts.Fields,
		Balancer:    bal,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Run(iters)
}

// Table4 reproduces "Execution time of the parallel loop in static
// environments": wall time and nonuniform-environment efficiency
// (Section 4) for clusters of 1..5 equally fast workstations.
func Table4(opts Options) (*Table, error) {
	g, err := benchMesh(opts)
	if err != nil {
		return nil, err
	}
	iters, workRep := staticScale(opts)
	t := &Table{
		ID:    "Table 4",
		Title: "Parallel loop in a static environment",
		Header: []string{
			"Workstations", "Paper Time", "Paper Eff",
			"Measured Time", "Measured Eff",
		},
		Notes: []string{
			fmt.Sprintf("%d iterations, work amplification %d, mesh %d vertices, Ethernet model x%g",
				iters, workRep, g.N, opts.netScale()),
			"paper: 500 iterations on SUN4s; efficiency E = (1/Tpar)/sum(1/Ti)",
		},
	}
	if opts.Pipeline > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("executor depth %d", opts.Pipeline))
	}
	var t1 float64
	for _, p := range []int{1, 2, 3, 4, 5} {
		rep, err := measureRun(g, hetero.Uniform(p), p, iters, workRep, opts, nil)
		if err != nil {
			return nil, err
		}
		tp := rep.Wall.Seconds()
		if p == 1 {
			t1 = tp
		}
		seq := make([]float64, p)
		for i := range seq {
			seq[i] = t1
		}
		eff, err := metrics.EfficiencyStatic(tp, seq)
		if err != nil {
			return nil, err
		}
		paper := table4Paper[p]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("1..%d", p),
			seconds(paper[0]), fmt.Sprintf("%.2f", paper[1]),
			seconds(tp), fmt.Sprintf("%.2f", eff),
		})
	}
	return t, nil
}
