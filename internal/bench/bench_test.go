package bench

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"stance/internal/partition"
	"stance/internal/redist"
)

func quickOpts() Options {
	return Options{Quick: true, NetScale: 0.2, Seed: 7}
}

// virtualOpts are the quick settings on a simulated clock: the solver
// tables measure exact virtual durations, run in milliseconds of real
// time, and produce identical numbers on every run — which is what
// lets the tests below assert the paper's wall-clock shapes (speedup
// with more workstations, LB beating no-LB) that used to be too flaky
// to assert on shared runners.
func virtualOpts() Options {
	return quickOpts().Virtual(time.Microsecond)
}

func cellSeconds(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	s, err := tab.Cell(row, col)
	if err != nil {
		t.Fatal(err)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not a number: %v", s, err)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tab, err := Table1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// MCR time must grow with p (the O(p^3) scaling) and stay small
	// even at 20 workstations, the paper's headline observation.
	t3 := cellSeconds(t, tab, 0, "Measured")
	t20 := cellSeconds(t, tab, 4, "Measured")
	if t20 <= t3 {
		t.Errorf("MCR at p=20 (%g) not slower than p=3 (%g)", t20, t3)
	}
	if t20 > 0.1 {
		t.Errorf("MCR at p=20 took %gs, want well under 0.1s", t20)
	}
	out := tab.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "Workstations") {
		t.Errorf("rendering missing pieces:\n%s", out)
	}
}

func TestTable2Shape(t *testing.T) {
	tab, err := Table2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 { // 3 sizes x 3 worker sets in quick mode
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Wall-clock cells at quick sizes sit inside scheduler and
	// sleep-granularity noise — especially when the whole test suite
	// runs in parallel — so the timings are only checked for
	// plausibility; the paper's claim (MCR reduces remap cost) is
	// asserted on the deterministic ground truth below, and the real
	// timing comparison lives in the full stance-bench run.
	for row := range tab.Rows {
		for _, col := range []string{"Measured MCR", "Measured no-MCR"} {
			if v := cellSeconds(t, tab, row, col); v <= 0 || v > 5 {
				t.Errorf("row %d: %s = %g, want a plausible duration", row, col, v)
			}
		}
	}
	// Deterministic shape check: on the exact instances the harness
	// measured (same seed, same draw), MCR must move strictly less
	// data in aggregate.
	opts := quickOpts()
	var movedMCR, movedNone int64
	for _, size := range []int64{512, 2048, 16384} {
		for _, p := range []int{3, 4, 5} {
			rng := rand.New(rand.NewSource(opts.Seed))
			for s := 0; s < 5; s++ {
				old, err := partition.NewBlock(size, randWeights(rng, p))
				if err != nil {
					t.Fatal(err)
				}
				newW := randWeights(rng, p)
				mcr, err := redist.Iterated(old, newW, redist.OverlapCost)
				if err != nil {
					t.Fatal(err)
				}
				keep, err := partition.New(size, newW, old.Arrangement())
				if err != nil {
					t.Fatal(err)
				}
				a, err := partition.Moved(old, mcr)
				if err != nil {
					t.Fatal(err)
				}
				b, err := partition.Moved(old, keep)
				if err != nil {
					t.Fatal(err)
				}
				if a > b {
					t.Fatalf("size %d p %d sample %d: MCR moved %d > keep %d", size, p, s, a, b)
				}
				movedMCR += a
				movedNone += b
			}
		}
	}
	if movedMCR >= movedNone {
		t.Errorf("aggregate moved: MCR %d not less than keep-arrangement %d", movedMCR, movedNone)
	}
}

func TestTable3Shape(t *testing.T) {
	tab, err := Table3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The robust shapes: the simple strategy gets more expensive as
	// workstations are added (message setups over the modeled network
	// dominate), and the sorting strategies beat it decisively at 5
	// workstations. The paper's downward sortN trend is sub-millisecond
	// on modern hardware and drowns in timer noise, so it is not
	// asserted (see EXPERIMENTS.md, Table 3).
	simpleAt2 := cellSeconds(t, tab, 0, "Simple")
	simpleAt5 := cellSeconds(t, tab, 3, "Simple")
	if simpleAt5 <= simpleAt2 {
		t.Errorf("Simple did not get dearer with more workstations: %g -> %g", simpleAt2, simpleAt5)
	}
	for _, col := range []string{"Sort1", "Sort2"} {
		at5 := cellSeconds(t, tab, 3, col)
		if at5 >= simpleAt5/2 {
			t.Errorf("%s (%g) not well under Simple (%g) at 5 workstations", col, at5, simpleAt5)
		}
		if at5 > 0.05 {
			t.Errorf("%s build took %gs on the quick mesh, want well under 50ms", col, at5)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	// The virtual clock restores the assertions that were flaky as
	// wall-clock measurements: the static experiment's time must
	// strictly shrink as workstations are added (the paper's headline
	// speedup), efficiency stays in (0, 1], and the single-workstation
	// efficiency is 1 by construction. All cells are exact virtual
	// durations, identical on every run.
	tab, err := Table4(virtualOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	prev := 0.0
	for row := range tab.Rows {
		v := cellSeconds(t, tab, row, "Measured Time")
		if v <= 0 {
			t.Errorf("row %d: Measured Time = %g, want > 0", row, v)
		}
		if row > 0 && v >= prev {
			t.Errorf("row %d: adding a workstation did not speed the loop up: %g -> %g", row, prev, v)
		}
		prev = v
		if e := cellSeconds(t, tab, row, "Measured Eff"); e <= 0 || e > 1.01 {
			t.Errorf("row %d: Measured Eff = %g, want in (0, 1]", row, e)
		}
	}
	if e1 := cellSeconds(t, tab, 0, "Measured Eff"); e1 < 0.99 {
		t.Errorf("single-workstation efficiency %g, want 1", e1)
	}
}

// TestTable4Deterministic: the virtual-clock table reproduces exactly
// — every formatted cell, run to run.
func TestTable4Deterministic(t *testing.T) {
	a, err := Table4(virtualOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table4(virtualOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("virtual Table 4 not reproducible:\n%s\nvs\n%s", a, b)
	}
}

func TestMeasureStaticRunReport(t *testing.T) {
	// The deterministic structure behind Table 4: the run executes
	// exactly the requested iterations, performs no balance checks, and
	// its executor traffic replays the same schedule every iteration —
	// one Exchange per rank per iteration, a whole number of f64s on
	// the wire, and nothing at all on a single workstation. Runs on the
	// virtual clock, so it costs milliseconds.
	opts := virtualOpts()
	g, err := benchMesh(opts)
	if err != nil {
		t.Fatal(err)
	}
	const p, iters = 3, 4
	rep, err := measureRun(g, nil, p, iters, 1, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iters != iters {
		t.Errorf("Iters = %d, want %d", rep.Iters, iters)
	}
	if len(rep.Checks) != 0 {
		t.Errorf("static run recorded %d balance checks", len(rep.Checks))
	}
	if rep.Exec.Ops != p*iters {
		t.Errorf("Exec.Ops = %d, want %d (one Exchange per rank per iteration)", rep.Exec.Ops, p*iters)
	}
	if rep.Exec.Msgs <= 0 || rep.Exec.Msgs%iters != 0 {
		t.Errorf("Exec.Msgs = %d, want a positive multiple of %d iterations", rep.Exec.Msgs, iters)
	}
	if rep.Exec.Bytes <= 0 || rep.Exec.Bytes%8 != 0 {
		t.Errorf("Exec.Bytes = %d, want a positive multiple of 8", rep.Exec.Bytes)
	}
	if rep.Msgs < rep.Exec.Msgs {
		t.Errorf("world Msgs %d < executor Msgs %d", rep.Msgs, rep.Exec.Msgs)
	}
	solo, err := measureRun(g, nil, 1, iters, 1, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if solo.Exec.Msgs != 0 || solo.Exec.Bytes != 0 {
		t.Errorf("single workstation exchanged %d msgs / %d bytes, want none",
			solo.Exec.Msgs, solo.Exec.Bytes)
	}
	if solo.Exec.Ops != iters {
		t.Errorf("single workstation Exec.Ops = %d, want %d", solo.Exec.Ops, iters)
	}
}

func TestTable5Shape(t *testing.T) {
	// On the virtual clock the paper's adaptive-environment claims are
	// assertable again, exactly: a factor-3 imbalance produces a remap
	// whose costs are measured, and — the headline — the load-balanced
	// run beats the unbalanced one in every row. These are exact
	// virtual durations; the wall-clock versions of these comparisons
	// were unreliable on loaded machines.
	tab, err := Table5(virtualOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 { // seq row + 2 worker sets in quick mode
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for row := 1; row < len(tab.Rows); row++ {
		check := cellSeconds(t, tab, row, "check")
		lbCost := cellSeconds(t, tab, row, "LB cost")
		if check <= 0 || lbCost <= 0 {
			t.Errorf("row %d: costs not measured (check %g, LB %g)", row, check, lbCost)
		}
		lb := cellSeconds(t, tab, row, "LB")
		noLB := cellSeconds(t, tab, row, "no-LB")
		if lb <= 0 || noLB <= 0 {
			t.Errorf("row %d: LB %g / no-LB %g, want > 0", row, lb, noLB)
		}
		if lb >= noLB {
			t.Errorf("row %d: load balancing did not pay: LB %g >= no-LB %g", row, lb, noLB)
		}
	}
}

func TestCellErrors(t *testing.T) {
	tab := &Table{Header: []string{"A"}, Rows: [][]string{{"1"}}}
	if _, err := tab.Cell(0, "B"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := tab.Cell(5, "A"); err == nil {
		t.Error("bad row accepted")
	}
	if v, err := tab.Cell(0, "A"); err != nil || v != "1" {
		t.Errorf("Cell = %q, %v", v, err)
	}
}

func TestMeasureAdaptiveReportsRemap(t *testing.T) {
	res, err := MeasureAdaptiveRun(virtualOpts(), 3, 25, 60)
	if err != nil {
		t.Fatal(err)
	}
	// On the virtual clock the WithLB < WithoutLB comparison that had
	// to be dropped from the wall-clock version is exact again: the
	// imbalance must trigger at least one check and one remap, both
	// costs must have been measured, the executor must have moved
	// traffic — and balancing must pay.
	if !res.Remapped {
		t.Error("3x imbalance did not trigger a remap")
	}
	if res.WithLB >= res.WithoutLB {
		t.Errorf("load balancing did not pay: %v with vs %v without", res.WithLB, res.WithoutLB)
	}
	if res.Checks < 1 {
		t.Errorf("LB run recorded %d balance checks, want >= 1", res.Checks)
	}
	if res.Remaps < 1 {
		t.Errorf("LB run recorded %d remaps, want >= 1", res.Remaps)
	}
	if res.CheckCost <= 0 || res.LBCost <= 0 {
		t.Errorf("costs not measured (check %v, LB %v)", res.CheckCost, res.LBCost)
	}
	if res.ExecMsgs <= 0 {
		t.Errorf("LB run sent %d executor messages, want > 0", res.ExecMsgs)
	}
}
