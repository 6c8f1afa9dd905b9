package bench

import (
	"fmt"
	"time"

	"stance/internal/hetero"
	"stance/internal/loadbal"
	"stance/internal/redist"
)

// table5Paper holds the paper's published adaptive-environment
// results: [with LB, without LB, check cost, LB cost].
var table5Paper = map[int][4]float64{
	2: {88.96, 166.2, 0.005, 0.58},
	3: {57.22, 115.6, 0.007, 0.39},
	4: {43.52, 92.54, 0.008, 0.19},
	5: {40.56, 79.32, 0.011, 0.17},
}

// table5PaperSeqLoaded is the paper's single loaded workstation time.
const table5PaperSeqLoaded = 290.93

// loadFactor is the competing load on workstation 0 (the paper's
// 290.93/97.61 sequential ratio implies ~3x).
const loadFactor = 3

// AdaptiveResult is one adaptive-environment measurement.
type AdaptiveResult struct {
	WithLB    time.Duration
	WithoutLB time.Duration
	CheckCost time.Duration
	LBCost    time.Duration
	Remapped  bool
	// Checks and Remaps count the LB run's balance checks and actual
	// remaps; ExecMsgs counts the executor messages it sent. These are
	// the structural fields tests assert on — unlike the wall-clock
	// ratios above they do not depend on how loaded the machine is.
	Checks   int
	Remaps   int
	ExecMsgs int64
}

// MeasureAdaptiveRun reproduces the paper's Table 5 protocol on p
// workstations with a constant competing load on workstation 0: (a)
// run all iterations without load balancing; (b) run with the
// decomposition that assumed equal machines and the session driver's
// periodic balance check (every 10 iterations), which remaps when
// profitable.
func MeasureAdaptiveRun(opts Options, p, iters, workRep int) (AdaptiveResult, error) {
	g, err := benchMesh(opts)
	if err != nil {
		return AdaptiveResult{}, err
	}
	env := hetero.PaperAdaptive(p, loadFactor)
	var res AdaptiveResult

	without, err := measureRun(g, env, p, iters, workRep, opts, nil)
	if err != nil {
		return AdaptiveResult{}, err
	}
	res.WithoutLB = without.Wall

	// Horizon is left zero so each periodic check amortizes a remap
	// over the interval until the next check (the session default) —
	// with checks every 10 iterations, a fixed iters-10 horizon would
	// let late checks claim gains the run has no time left to realize.
	scale := opts.netScale()
	var bal *loadbal.Config
	if p > 1 {
		bal = &loadbal.Config{
			CostModel: redist.CostModel{
				PerMessage: 1e-3 * scale,
				PerByte:    scale / 1.25e6,
			},
		}
	}
	with, err := measureRun(g, env, p, iters, workRep, opts, bal)
	if err != nil {
		return AdaptiveResult{}, err
	}
	res.WithLB = with.Wall
	res.Checks = len(with.Checks)
	res.Remaps = len(with.Remaps())
	res.ExecMsgs = with.Exec.Msgs
	if checks := with.Checks; len(checks) > 0 {
		// CheckTime covers report/decide/broadcast only; the remap is
		// timed separately, taken from the first check that remapped
		// (borderline decisions may decline at iter 10 and remap at a
		// later check).
		res.CheckCost = checks[0].Decision.CheckTime
		for _, ev := range checks {
			if ev.Decision.Remapped {
				res.LBCost = ev.Decision.RemapTime
				res.Remapped = true
				break
			}
		}
	}
	return res, nil
}

// adaptiveScale sets Table 5's iteration count: it must exceed the
// paper's 10-iteration warm-up so the check actually fires.
func adaptiveScale(opts Options) (iters, workRep int) {
	if opts.Quick {
		return 15, 200
	}
	// 40 iterations at a reduced amplification: the 10-iteration
	// unbalanced warm-up is a quarter of the run, as close to the
	// paper's 500-iteration amortization as a minute-scale benchmark
	// affords.
	return 40, 1000
}

// Table5 reproduces "Execution time of the parallel loop in an
// adaptive environment": a competing load lands on workstation 1 after
// the mesh was decomposed for equal machines; remapping after 10
// iterations roughly halves the total time, the load-balance check is
// an order of magnitude cheaper than the remap, and the remap costs a
// few iterations' worth of time.
func Table5(opts Options) (*Table, error) {
	iters, workRep := adaptiveScale(opts)
	t := &Table{
		ID:    "Table 5",
		Title: "Parallel loop in an adaptive environment (competing load on workstation 1)",
		Header: []string{
			"Workstations",
			"Paper LB", "Paper no-LB", "Paper check", "Paper LB cost",
			"LB", "no-LB", "check", "LB cost",
		},
		Notes: []string{
			fmt.Sprintf("%d iterations, decomposition assumes equal machines, load factor %d, check after 10 iterations",
				iters, loadFactor),
			"paper: 500 iterations; sequential loaded workstation: 290.93s (vs 97.61s unloaded)",
		},
	}
	if opts.Pipeline > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("executor depth %d", opts.Pipeline))
	}
	// The single loaded workstation row.
	g, err := benchMesh(opts)
	if err != nil {
		return nil, err
	}
	seqLoaded, err := measureRun(g, hetero.PaperAdaptive(1, loadFactor), 1, iters, workRep, opts, nil)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"1", "-", seconds(table5PaperSeqLoaded), "-", "-",
		"-", seconds(seqLoaded.Wall.Seconds()), "-", "-",
	})
	ps := []int{2, 3, 4, 5}
	if opts.Quick {
		ps = []int{2, 3}
	}
	for _, p := range ps {
		res, err := MeasureAdaptiveRun(opts, p, iters, workRep)
		if err != nil {
			return nil, err
		}
		paper := table5Paper[p]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("1..%d", p),
			seconds(paper[0]), seconds(paper[1]), seconds(paper[2]), seconds(paper[3]),
			seconds(res.WithLB.Seconds()), seconds(res.WithoutLB.Seconds()),
			seconds(res.CheckCost.Seconds()), seconds(res.LBCost.Seconds()),
		})
	}
	return t, nil
}

// All runs every table, the hierarchical twin included.
func All(opts Options) ([]*Table, error) {
	var out []*Table
	for _, f := range []func(Options) (*Table, error){Table1, Table2, Table3, Table4, Table5, TableHierStatic} {
		t, err := f(opts)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
