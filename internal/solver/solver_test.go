package solver

import (
	"fmt"
	"testing"

	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/graph"
	"stance/internal/hetero"
	"stance/internal/mesh"
	"stance/internal/order"
)

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
	ws, err := comm.NewWorld(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer comm.CloseWorld(ws)
	rt, err := core.New(ws[0], g, core.Config{Order: order.RCB})
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
			ws, err := comm.NewWorld(3, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got []float64
			err = comm.SPMD(ws, func(c *comm.Comm) error {
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
			comm.CloseWorld(ws)
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
	ws, err := comm.NewWorld(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer comm.CloseWorld(ws)
	err = comm.SPMD(ws, func(c *comm.Comm) error {
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

// countingKernel is Figure8 counting the elements it is asked to sweep.
type countingKernel struct {
	Figure8
	swept *int
}

func (k countingKernel) Sweep(data []float64, xadj, adj []int32, tv []float64, lo, hi int) {
	*k.swept += hi - lo
	k.Figure8.Sweep(data, xadj, adj, tv, lo, hi)
}

func (k countingKernel) SweepIdx(data []float64, xadj, adj []int32, tv []float64, idx []int32) {
	*k.swept += len(idx)
	k.Figure8.SweepIdx(data, xadj, adj, tv, idx)
}

// TestWorkFactorAmplifiesSweeps: a competing load multiplies the kernel
// passes per iteration — workRep × factor repeats plus the one
// guaranteed pass — identically whether the section is swept whole
// (depth 0) or as interior and boundary strips (depth 1). Counted in
// elements swept, not seconds, so machine load cannot move it.
func TestWorkFactorAmplifiesSweeps(t *testing.T) {
	g := testMesh(t)
	const iters, workRep = 3, 4
	measure := func(env *hetero.Env, depth int) int {
		ws, err := comm.NewWorld(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer comm.CloseWorld(ws)
		rt, err := core.New(ws[0], g, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(rt, env, workRep)
		if err != nil {
			t.Fatal(err)
		}
		swept := 0
		if err := s.SetKernel(countingKernel{swept: &swept}); err != nil {
			t.Fatal(err)
		}
		if err := s.SetPipeline(depth); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(iters, nil); err != nil {
			t.Fatal(err)
		}
		return swept
	}
	loadedEnv := hetero.PaperAdaptive(1, 4)
	factor := loadedEnv.WorkFactor(0, 0)
	if factor <= 1 {
		t.Fatalf("loaded environment has work factor %v", factor)
	}
	for depth := 0; depth <= 1; depth++ {
		base := measure(hetero.Uniform(1), depth)
		loaded := measure(loadedEnv, depth)
		if want := iters * (workRep + 1) * g.N; base != want {
			t.Errorf("depth %d: unloaded run swept %d elements, want %d", depth, base, want)
		}
		if want := iters * (int(workRep*factor) + 1) * g.N; loaded != want {
			t.Errorf("depth %d: factor-%v run swept %d elements, want %d", depth, factor, loaded, want)
		}
	}
}

func TestRunHook(t *testing.T) {
	g := testMesh(t)
	ws, err := comm.NewWorld(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer comm.CloseWorld(ws)
	rt, err := core.New(ws[0], g, core.Config{})
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
	ws, err := comm.NewWorld(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer comm.CloseWorld(ws)
	if _, err := New(nil, nil, 1); err == nil {
		t.Error("nil runtime accepted")
	}
	rt, err := core.New(ws[0], g, core.Config{})
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
