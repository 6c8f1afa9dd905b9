package solver

import (
	"fmt"
	"math"
	"testing"
	"time"

	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/graph"
	"stance/internal/hetero"
	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/sched"
)

// openWorld opens an in-process world of p ranks and closes it when
// the test ends.
func openWorld(t testing.TB, p int) *comm.World {
	t.Helper()
	w, err := comm.Open("inproc", p, comm.TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func testMesh(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := mesh.GridTriangulated(12, 10, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// seqResult runs the solver single-rank as the reference.
func seqResult(t *testing.T, g *graph.Graph, iters, workRep int) []float64 {
	t.Helper()
	world := openWorld(t, 1)
	rt, err := core.New(world.Comm(0), g, core.Config{Order: order.RCB})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(rt, nil, workRep)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(iters, nil); err != nil {
		t.Fatal(err)
	}
	out, err := s.GatherResult(0)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSolverMatchesSequentialUnderAnyEnvironment(t *testing.T) {
	g := testMesh(t)
	const iters = 5
	want := seqResult(t, g, iters, 1)
	envs := map[string]*hetero.Env{
		"uniform":  hetero.Uniform(3),
		"loaded":   hetero.PaperAdaptive(3, 3),
		"speeds":   {Speeds: []float64{1, 0.5, 2}},
		"windowed": {Speeds: []float64{1, 1, 1}, Loads: []hetero.Load{{Rank: 1, Factor: 2.5, FromIter: 2, UntilIter: 4}}},
	}
	for name, env := range envs {
		for _, workRep := range []int{1, 3} {
			world := openWorld(t, 3)
			var got []float64
			err := world.SPMD(nil, func(c *comm.Comm) error {
				rt, err := core.New(c, g, core.Config{Order: order.RCB})
				if err != nil {
					return err
				}
				s, err := New(rt, env, workRep)
				if err != nil {
					return err
				}
				if err := s.Run(iters, nil); err != nil {
					return err
				}
				full, err := s.GatherResult(0)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					got = full
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s rep=%d: %v", name, workRep, err)
			}
			world.Close()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s rep=%d: element %d = %v, want %v (work amplification must not change results)",
						name, workRep, i, got[i], want[i])
				}
			}
		}
	}
}

func TestTimingsAccumulateAndReset(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 2)
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := core.New(c, g, core.Config{})
		if err != nil {
			return err
		}
		s, err := New(rt, nil, 2)
		if err != nil {
			return err
		}
		const iters = 4
		if err := s.Run(iters, nil); err != nil {
			return err
		}
		tm := s.TakeTimings()
		if tm.Items != int64(iters*rt.LocalN()) {
			return fmt.Errorf("items = %d, want %d", tm.Items, iters*rt.LocalN())
		}
		if tm.Compute <= 0 {
			return fmt.Errorf("compute time not measured")
		}
		if tm.RatePerItem() <= 0 {
			return fmt.Errorf("rate = %v", tm.RatePerItem())
		}
		tm2 := s.TakeTimings()
		if tm2.Items != 0 || tm2.Compute != 0 || tm2.Comm != 0 {
			return fmt.Errorf("timings not reset: %+v", tm2)
		}
		if tm2.RatePerItem() != 0 {
			return fmt.Errorf("zero-item rate = %v", tm2.RatePerItem())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sweepCall is one UpdateRows call as a recording kernel saw it.
type sweepCall struct{ rows, entries int }

// recordingKernel is Figure8 logging each call's row and adjacency
// entry counts.
type recordingKernel struct {
	Figure8
	calls *[]sweepCall
}

func (k recordingKernel) UpdateRows(data []float64, rows sched.Rows, next []float64) {
	c := sweepCall{rows: len(rows.Idx)}
	for _, u := range rows.Idx {
		c.entries += int(rows.Xadj[u+1] - rows.Xadj[u])
	}
	*k.calls = append(*k.calls, c)
	k.Figure8.UpdateRows(data, rows, next)
}

// rowsSwept is the total over a recording kernel's calls.
func rowsSwept(calls []sweepCall) int {
	n := 0
	for _, c := range calls {
		n += c.rows
	}
	return n
}

// countSweeps runs iters iterations single-rank under env with a
// recording kernel — spinning, or charging cost per row when cost is
// positive — and returns the rows the kernel swept, the compute time
// accounted and how many of the plan's two lists hold rows.
func countSweeps(t *testing.T, g *graph.Graph, env *hetero.Env, workRep, depth, iters int, cost time.Duration) (swept int, charged time.Duration, lists int) {
	t.Helper()
	world := openWorld(t, 1)
	rt, err := core.New(world.Comm(0), g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(rt, env, workRep)
	if err != nil {
		t.Fatal(err)
	}
	var calls []sweepCall
	if err := s.SetKernel(recordingKernel{calls: &calls}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPipeline(depth); err != nil {
		t.Fatal(err)
	}
	s.SetVirtualCompute(cost)
	if err := s.Run(iters, nil); err != nil {
		t.Fatal(err)
	}
	for _, idx := range [][]int32{rt.Plan().InteriorRows().Idx, rt.Plan().BoundaryRows().Idx} {
		if len(idx) > 0 {
			lists++
		}
	}
	return rowsSwept(calls), s.TakeTimings().Compute, lists
}

// TestWorkFactorAmplifiesSweeps: a competing load multiplies the kernel
// passes per iteration — workRep × factor of them, the first of which
// is the pass that writes the result; until PR 23 a further "guaranteed"
// pass followed, workRep × factor + 1 in all — identically whether the
// section is swept whole (depth 0) or as interior and boundary strips
// (depth 1). Counted in elements swept, not seconds, so machine load
// cannot move it.
func TestWorkFactorAmplifiesSweeps(t *testing.T) {
	g := testMesh(t)
	const iters, workRep = 3, 4
	loadedEnv := hetero.PaperAdaptive(1, 4)
	factor := loadedEnv.WorkFactor(0, 0)
	if factor <= 1 {
		t.Fatalf("loaded environment has work factor %v", factor)
	}
	for depth := 0; depth <= 1; depth++ {
		base, _, _ := countSweeps(t, g, hetero.Uniform(1), workRep, depth, iters, 0)
		loaded, _, _ := countSweeps(t, g, loadedEnv, workRep, depth, iters, 0)
		if want := iters * workRep * g.N; base != want {
			t.Errorf("depth %d: unloaded run swept %d elements, want %d", depth, base, want)
		}
		if want := iters * int(workRep*factor) * g.N; loaded != want {
			t.Errorf("depth %d: factor-%v run swept %d elements, want %d", depth, factor, loaded, want)
		}
	}
}

// TestSpinSweepsWhatVirtualCharges: the two ways of emulating a
// workstation agree on how much work an iteration is. With
// r = WorkRep × factor the spinning mode sweeps max(r, 1) × rows — r
// whole, then a prefix of each list for the fraction, short by less
// than one row per list — and the virtual mode charges cost × r × rows
// to the clock; the floor at one pass is the pass that computes the
// result, which a workstation faster than the reference still has to
// run. Until PR 23 the spinning mode swept r + 1 times, so a factor-2
// workstation was emulated as 3 : 2. Counted with a recording kernel
// and the virtual charge as accounted (the microseconds it sleeps are
// not measured), so machine load cannot move it.
func TestSpinSweepsWhatVirtualCharges(t *testing.T) {
	g := testMesh(t)
	const iters = 2
	const cost = time.Microsecond
	run := func(workRep int, factor float64, depth int, virtual bool) (int, time.Duration, int) {
		c := time.Duration(0)
		if virtual {
			c = cost
		}
		return countSweeps(t, g, &hetero.Env{Speeds: []float64{1 / factor}}, workRep, depth, iters, c)
	}
	for _, tc := range []struct {
		workRep int
		factor  float64
	}{{1, 0.5}, {1, 0.8}, {1, 1}, {1, 1.75}, {1, 2}, {3, 0.4}, {8, 0.5}, {8, 1}, {8, 1.3}} {
		for depth := 0; depth <= 2; depth++ {
			r := float64(tc.workRep) * tc.factor
			swept, _, lists := run(tc.workRep, tc.factor, depth, false)
			want := max(r, 1) * float64(iters*g.N)
			if short := want - float64(swept); short < 0 || short >= float64(iters*lists) {
				t.Errorf("WorkRep %d, factor %v, depth %d: swept %d rows, want %v less under one row per list and iteration",
					tc.workRep, tc.factor, depth, swept, want)
			}
			once, charged, _ := run(tc.workRep, tc.factor, depth, true)
			if once != iters*g.N {
				t.Errorf("WorkRep %d, factor %v, depth %d: virtual mode swept %d rows, want one pass (%d)",
					tc.workRep, tc.factor, depth, once, iters*g.N)
			}
			// The charge is truncated to the nanosecond once per strip.
			chargedRows := float64(charged) / float64(cost)
			if diff := r*float64(iters*g.N) - chargedRows; diff < 0 || diff >= float64(iters*lists)/float64(cost) {
				t.Errorf("WorkRep %d, factor %v, depth %d: virtual mode charged %v, want %v rows' worth",
					tc.workRep, tc.factor, depth, charged, r*float64(iters*g.N))
			}
			if r >= 1 {
				if diff := chargedRows - float64(swept); diff < 0 || diff >= float64(iters*lists) {
					t.Errorf("WorkRep %d, factor %v, depth %d: spinning swept %d rows, virtual charged for %v",
						tc.workRep, tc.factor, depth, swept, chargedRows)
				}
			}
		}
	}
}

// TestHalfSpeedWorkstationSweepsTwice is the emulation-fidelity pin: at
// WorkRep 1 a workstation of speed 0.5 beside one of speed 1 runs the
// kernel over each of its rows exactly twice per iteration, the other
// exactly once — the paper's 2 : 1, where the extra guaranteed pass
// used to make it 3 : 2.
func TestHalfSpeedWorkstationSweepsTwice(t *testing.T) {
	g := testMesh(t)
	const iters = 4
	for depth := 0; depth <= 2; depth++ {
		world := openWorld(t, 2)
		env := &hetero.Env{Speeds: []float64{1, 0.5}}
		err := world.SPMD(nil, func(c *comm.Comm) error {
			rt, err := core.New(c, g, core.Config{Order: order.RCB})
			if err != nil {
				return err
			}
			s, err := New(rt, env, 1)
			if err != nil {
				return err
			}
			var calls []sweepCall
			if err := s.SetKernel(recordingKernel{calls: &calls}); err != nil {
				return err
			}
			if err := s.SetPipeline(depth); err != nil {
				return err
			}
			if err := s.Run(iters, nil); err != nil {
				return err
			}
			if got, want := rowsSwept(calls), (1+c.Rank())*iters*rt.LocalN(); got != want {
				return fmt.Errorf("speed %v swept %d rows in %d iterations over %d, want %d",
					env.Speeds[c.Rank()], got, iters, rt.LocalN(), want)
			}
			return nil
		})
		world.Close()
		if err != nil {
			t.Errorf("depth %d: %v", depth, err)
		}
	}
}

// TestPartialPassLeavesNoRowUnwritten: whatever the work factor — below
// one, fractional, changing mid-run — the first pass over a strip is
// whole, so every row of the scratch vector holds this iteration's
// value of this field when it moves into the vector. Two fields share
// the scratch: a row a partial pass skipped would carry the other
// field's value (or the last iteration's) into the result. Both fields
// are held to the unloaded single-rank run bit for bit at depths 0, 1
// and 2, for both kernels.
func TestPartialPassLeavesNoRowUnwritten(t *testing.T) {
	g := testMesh(t)
	const iters, fields = 6, 2
	run := func(p, depth, workRep int, env *hetero.Env, k Kernel) [fields][]float64 {
		world := openWorld(t, p)
		var out [fields][]float64
		err := world.SPMD(nil, func(c *comm.Comm) error {
			rt, err := core.New(c, g, core.Config{Order: order.RCB})
			if err != nil {
				return err
			}
			s, err := New(rt, env, workRep)
			if err != nil {
				return err
			}
			if err := s.SetKernel(k); err != nil {
				return err
			}
			if err := s.SetFields(fields); err != nil {
				return err
			}
			if err := s.SetPipeline(depth); err != nil {
				return err
			}
			if err := s.Run(iters, nil); err != nil {
				return err
			}
			for f := range out {
				full, err := s.GatherField(0, f)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					out[f] = full
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	envs := map[string]*hetero.Env{
		"fast and slow": {Speeds: []float64{3, 0.4, 1.6}},
		"fractional":    {Speeds: []float64{1, 1, 1}, Loads: []hetero.Load{{Rank: 0, Factor: 1.75}, {Rank: 2, Factor: 1.01}}},
		"windowed":      {Speeds: []float64{0.9, 1.1, 1}, Loads: []hetero.Load{{Rank: 1, Factor: 2.5, FromIter: 2, UntilIter: 4}}},
	}
	for _, kern := range builtinKernels {
		want := run(1, 0, 1, nil, kern.k)
		for name, env := range envs {
			for depth := 0; depth <= 2; depth++ {
				for _, workRep := range []int{1, 2} {
					got := run(3, depth, workRep, env, kern.k)
					for f := range want {
						for i := range want[f] {
							if math.Float64bits(got[f][i]) != math.Float64bits(want[f][i]) {
								t.Fatalf("%s, %s, depth %d, WorkRep %d: field %d element %d = %v, want %v",
									kern.name, name, depth, workRep, f, i, got[f][i], want[f][i])
							}
						}
					}
				}
			}
		}
	}
}

func TestRunHook(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 1)
	rt, err := core.New(world.Comm(0), g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(rt, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	err = s.Run(5, func(iter int) error {
		seen = append(seen, iter)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range seen {
		if it != i+1 {
			t.Fatalf("hook iterations = %v", seen)
		}
	}
	if s.Iter() != 5 {
		t.Errorf("Iter = %d", s.Iter())
	}
	// Hook errors abort the run.
	boom := fmt.Errorf("boom")
	err = s.Run(3, func(int) error { return boom })
	if err != boom {
		t.Errorf("hook error not propagated: %v", err)
	}
}

func TestNewErrors(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 2)
	if _, err := New(nil, nil, 1); err == nil {
		t.Error("nil runtime accepted")
	}
	rt, err := core.New(world.Comm(0), g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(rt, hetero.Uniform(5), 1); err == nil {
		t.Error("environment size mismatch accepted")
	}
	bad := &hetero.Env{Speeds: []float64{1, -1}}
	if _, err := New(rt, bad, 1); err == nil {
		t.Error("invalid environment accepted")
	}
}

// TestFractionalWorkFactorStaysProportional guards the emulated
// workstation speed against the plan's row order: a work factor of
// 1+frac adds one partial pass over a row-count prefix of each list,
// and that prefix must carry frac of the adjacency entries — the work —
// not just frac of the rows. The plan groups rows by degree only inside
// fixed windows, so a prefix is off by at most part of one window; were
// a whole list grouped, its front would hold the cheap rows and every
// fractional factor would run fast. On the benchmark mesh at p=2 the
// partial pass must cover frac of the entries to within 2 %: of the
// rank's at either depth (depth 0 takes the same share of both lists in
// one sweep), and of the interior strip's on its own at depth 1. The
// boundary strip there is 300 rows, barely more than one window, so on
// its own it is off by a third and is held to 2 % only together with
// the interior.
func TestFractionalWorkFactorStaysProportional(t *testing.T) {
	g, err := mesh.GridTriangulated(300, 300, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	within2pct := func(covered int, frac float64, entries int) bool {
		want := frac * float64(entries)
		return math.Abs(float64(covered)-want) <= 0.02*want
	}
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		for depth := 0; depth <= 1; depth++ {
			world := openWorld(t, 2)
			env := hetero.Uniform(2)
			env.Loads = []hetero.Load{{Rank: 0, Factor: 1 + frac}, {Rank: 1, Factor: 1 + frac}}
			err := world.SPMD(nil, func(c *comm.Comm) error {
				rt, err := core.New(c, g, core.Config{Order: order.RCB})
				if err != nil {
					return err
				}
				s, err := New(rt, env, 1)
				if err != nil {
					return err
				}
				var calls []sweepCall
				if err := s.SetKernel(recordingKernel{calls: &calls}); err != nil {
					return err
				}
				if err := s.SetPipeline(depth); err != nil {
					return err
				}
				if err := s.Step(); err != nil {
					return err
				}
				// Work factor 1+frac at workRep 1 is 1+frac sweeps: the
				// full pass that writes the result, then the partial
				// pass — four kernel calls. (Six until PR 23, which
				// dropped the extra "guaranteed" full pass that used to
				// follow.) Depth 0 runs each pass over both lists; depth
				// 1 runs the two passes over the interior, then over the
				// boundary.
				if len(calls) != 4 {
					return fmt.Errorf("kernel saw %d calls, want 4", len(calls))
				}
				full, part := calls[0:2], calls[2:4]
				if depth == 1 {
					full, part = []sweepCall{calls[0], calls[2]}, []sweepCall{calls[1], calls[3]}
				}
				if n := full[0].rows + full[1].rows; n != rt.LocalN() {
					return fmt.Errorf("the two lists hold %d rows, the rank %d", n, rt.LocalN())
				}
				for i := range full {
					if want := int(frac * float64(full[i].rows)); part[i].rows != want {
						return fmt.Errorf("list %d: partial pass swept %d of %d rows, want %d",
							i, part[i].rows, full[i].rows, want)
					}
				}
				if depth == 1 && !within2pct(part[0].entries, frac, full[0].entries) {
					return fmt.Errorf("interior strip: partial pass covered %d of %d entries",
						part[0].entries, full[0].entries)
				}
				if covered, entries := part[0].entries+part[1].entries, full[0].entries+full[1].entries; !within2pct(covered, frac, entries) {
					return fmt.Errorf("partial passes covered %d of the rank's %d entries", covered, entries)
				}
				return nil
			})
			world.Close()
			if err != nil {
				t.Errorf("factor %v, depth %d: %v", 1+frac, depth, err)
			}
		}
	}
}
