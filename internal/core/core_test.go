package core

import (
	"fmt"
	"math"
	"testing"

	"stance/internal/comm"
	"stance/internal/graph"
	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/partition"
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

// seqKernel runs the paper's Figure 8 loop sequentially on the
// transformed graph: t[i] = sum of neighbors' y, then y[i] = t[i]/deg.
func seqKernel(g *graph.Graph, y []float64, iters int) {
	t := make([]float64, g.N)
	for it := 0; it < iters; it++ {
		for i := 0; i < g.N; i++ {
			sum := 0.0
			for _, w := range g.Neighbors(i) {
				sum += y[w]
			}
			t[i] = sum
		}
		for i := 0; i < g.N; i++ {
			if d := g.Degree(i); d > 0 {
				y[i] = t[i] / float64(d)
			}
		}
	}
}

// parKernel runs the same loop on a runtime vector.
func parKernel(rt *Runtime, v *Vector, iters int) error {
	xadj, adj := rt.LocalAdj()
	nLocal := rt.LocalN()
	t := make([]float64, nLocal)
	for it := 0; it < iters; it++ {
		if err := rt.Exchange(v); err != nil {
			return err
		}
		for u := 0; u < nLocal; u++ {
			sum := 0.0
			for k := xadj[u]; k < xadj[u+1]; k++ {
				sum += v.Data[adj[k]]
			}
			t[u] = sum
		}
		for u := 0; u < nLocal; u++ {
			if d := xadj[u+1] - xadj[u]; d > 0 {
				v.Data[u] = t[u] / float64(d)
			}
		}
	}
	return nil
}

func initValue(g int64) float64 { return math.Sin(float64(g)*0.7) + 2 }

// runParallel executes the kernel on p ranks and returns the gathered
// global vector (transformed order).
func runParallel(t *testing.T, g *graph.Graph, p, iters int, cfg Config) []float64 {
	t.Helper()
	world := openWorld(t, p)
	var result []float64
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, cfg)
		if err != nil {
			return err
		}
		v := rt.NewVector()
		v.SetByGlobal(initValue)
		if err := parKernel(rt, v, iters); err != nil {
			return err
		}
		full, err := rt.GatherGlobal(0, v)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			result = full
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return result
}

// seqReference computes the expected result for a configuration's
// transformed graph.
func seqReference(t *testing.T, g *graph.Graph, ord order.Func, iters int) []float64 {
	t.Helper()
	if ord == nil {
		ord = order.Identity
	}
	perm, err := ord(g)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := g.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, tg.N)
	for i := range y {
		y[i] = initValue(int64(i))
	}
	seqKernel(tg, y, iters)
	return y
}

func testMesh(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := mesh.GridTriangulated(11, 13, 0.25, 9)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParallelMatchesSequentialExactly(t *testing.T) {
	g := testMesh(t)
	const iters = 7
	for _, p := range []int{1, 2, 3, 5} {
		for _, ord := range []struct {
			name string
			f    order.Func
		}{{"identity", nil}, {"rcb", order.RCB}} {
			cfg := Config{Order: ord.f}
			got := runParallel(t, g, p, iters, cfg)
			want := seqReference(t, g, ord.f, iters)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%d order=%s: element %d = %v, want %v (must be bit-exact)",
						p, ord.name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAllStrategiesComputeTheSame: the runtime builds with Sort2 alone,
// and on every rank each of the paper's three builders (Table 3)
// reproduces the schedule and plan it replays, so each computes the
// same bit-exact result the runtime does.
func TestAllStrategiesComputeTheSame(t *testing.T) {
	g := testMesh(t)
	const iters = 4
	world := openWorld(t, 3)
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		for _, name := range []string{"sort1", "sort2", "simple"} {
			if err := checkOracle(rt, oracleBuilders[name]); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := seqReference(t, g, order.RCB, iters)
	got := runParallel(t, g, 3, iters, Config{Order: order.RCB})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// Ranks handed one Transform compute what ranks that each prepare
// their own do, and share its storage.
func TestSharedTransform(t *testing.T) {
	g := testMesh(t)
	const iters = 3
	want := seqReference(t, g, order.RCB, iters)
	tr, err := NewTransform(g, Config{Order: order.RCB})
	if err != nil {
		t.Fatal(err)
	}
	got := runParallel(t, g, 4, iters, Config{Transform: tr, Order: func(*graph.Graph) ([]int32, error) {
		return nil, fmt.Errorf("ordering invoked despite a Transform")
	}})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
	world := openWorld(t, 1)
	rt, err := New(world.Comm(0), g, Config{Transform: tr})
	if err != nil {
		t.Fatal(err)
	}
	if &rt.Perm()[0] != &tr.perm[0] {
		t.Error("runtime copied the shared permutation")
	}
	small, err := mesh.GridTriangulated(4, 4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(world.Comm(0), small, Config{Transform: tr}); err == nil {
		t.Error("transform of another graph accepted")
	}
}

func TestRemapPreservesComputation(t *testing.T) {
	g := testMesh(t)
	const itersBefore, itersAfter = 3, 4
	want := seqReference(t, g, order.RCB, itersBefore+itersAfter)

	world := openWorld(t, 4)
	var got []float64
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{
			Order:   order.RCB,
			Weights: []float64{1, 1, 1, 1},
		})
		if err != nil {
			return err
		}
		v := rt.NewVector()
		v.SetByGlobal(initValue)
		if err := parKernel(rt, v, itersBefore); err != nil {
			return err
		}
		// The environment "adapts": rank 0 slows to a third.
		stats, err := rt.Remap([]float64{0.33, 1, 1, 1})
		if err != nil {
			return err
		}
		if !stats.Changed {
			return fmt.Errorf("remap with changed weights reported no change")
		}
		if stats.Moved <= 0 {
			return fmt.Errorf("remap moved %d elements", stats.Moved)
		}
		if err := parKernel(rt, v, itersAfter); err != nil {
			return err
		}
		full, err := rt.GatherGlobal(0, v)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			got = full
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %v, want %v after remap", i, got[i], want[i])
		}
	}
}

func TestRemapMovesLessWithMCR(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	oldW := []float64{0.27, 0.18, 0.34, 0.07, 0.14}
	newW := []float64{0.10, 0.13, 0.29, 0.24, 0.24}
	var moved, keepMoved int64
	world := openWorld(t, 5)
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Weights: oldW})
		if err != nil {
			return err
		}
		old := rt.Layout()
		rt.NewVector()
		stats, err := rt.Remap(newW)
		if err != nil || c.Rank() != 0 {
			return err
		}
		// The paper's "without MCR" arm: the new weights cut under the
		// old arrangement.
		keep, err := partition.New(old.N(), newW, old.Arrangement())
		if err != nil {
			return err
		}
		moved = stats.Moved
		keepMoved, err = partition.Moved(old, keep)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if moved >= keepMoved {
		t.Errorf("MCR moved %d elements, keep-arrangement moved %d; MCR should move less",
			moved, keepMoved)
	}
}

func TestRemapNoChange(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 2)
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{})
		if err != nil {
			return err
		}
		stats, err := rt.Remap([]float64{1, 1})
		if err != nil {
			return err
		}
		if stats.Changed || stats.Moved != 0 {
			return fmt.Errorf("no-op remap reported %+v", stats)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRemapToAppliesTheGivenLayout: RemapTo searches nothing. Every
// rank is handed the identity-arranged cut of skewed weights — a
// layout the arrangement search would not choose — and applies it
// verbatim, and the kernel stays bit-exact against the sequential
// reference across the move.
func TestRemapToAppliesTheGivenLayout(t *testing.T) {
	g := testMesh(t)
	const itersBefore, itersAfter = 3, 4
	want := seqReference(t, g, order.RCB, itersBefore+itersAfter)
	skewed := []float64{1, 1, 1, 3}
	world := openWorld(t, 4)
	var got []float64
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB, Weights: []float64{3, 1, 1, 1}})
		if err != nil {
			return err
		}
		v := rt.NewVector()
		v.SetByGlobal(initValue)
		if err := parKernel(rt, v, itersBefore); err != nil {
			return err
		}
		l, err := rt.CutLayout(skewed)
		if err != nil {
			return err
		}
		if chosen, err := rt.ChooseLayout(skewed); err != nil || chosen.Equal(l) {
			return fmt.Errorf("the search chose %v (%v); the test needs a layout it would not choose", chosen, err)
		}
		stats, err := rt.RemapTo(l)
		if err != nil {
			return err
		}
		if !stats.Changed || stats.Moved <= 0 || !rt.Layout().Equal(l) {
			return fmt.Errorf("rank %d: RemapTo reported %+v and runs on %v, want the given %v", c.Rank(), stats, rt.Layout(), l)
		}
		if err := parKernel(rt, v, itersAfter); err != nil {
			return err
		}
		full, err := rt.GatherGlobal(0, v)
		if c.Rank() == 0 {
			got = full
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %v, want %v after RemapTo", i, got[i], want[i])
		}
	}
}

// TestRemapToRejects: a nil layout, one over another number of
// elements and one over another number of ranks are errors, not
// panics, and leave the runtime working.
func TestRemapToRejects(t *testing.T) {
	g := testMesh(t)
	const p = 3
	world := openWorld(t, p)
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		v := rt.NewVector()
		v.SetByGlobal(initValue)
		before := rt.Layout()
		n := before.N()
		wrongN, err := partition.NewBlock(n+1, []float64{1, 1, 1})
		if err != nil {
			return err
		}
		wrongP, err := partition.NewBlock(n, []float64{1, 1})
		if err != nil {
			return err
		}
		for name, l := range map[string]*partition.Layout{"nil": nil, "another N": wrongN, "another P": wrongP} {
			if _, err := rt.RemapTo(l); err == nil {
				return fmt.Errorf("rank %d: RemapTo accepted a layout of %s", c.Rank(), name)
			}
		}
		if !rt.Layout().Equal(before) {
			return fmt.Errorf("rank %d: a refused RemapTo changed the layout", c.Rank())
		}
		return rt.Exchange(v)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterAdd(t *testing.T) {
	g := testMesh(t)
	// Each element pushes 1 to every neighbor: the result must be the
	// vertex degree.
	for _, p := range []int{1, 3} {
		world := openWorld(t, p)
		err := world.SPMD(nil, func(c *comm.Comm) error {
			rt, err := New(c, g, Config{Order: order.RCB})
			if err != nil {
				return err
			}
			v := rt.NewVector()
			xadj, adj := rt.LocalAdj()
			nLocal := rt.LocalN()
			// Accumulate contributions: local targets immediately,
			// ghost targets into the ghost section.
			for u := 0; u < nLocal; u++ {
				for k := xadj[u]; k < xadj[u+1]; k++ {
					v.Data[adj[k]]++
				}
			}
			if err := rt.ScatterAdd(v); err != nil {
				return err
			}
			iv := rt.globalInterval()
			for u := 0; u < nLocal; u++ {
				wantDeg := 0
				// Degree in the transformed graph equals degree of the
				// global vertex.
				wantDeg = int(xadj[u+1] - xadj[u])
				if v.Data[u] != float64(wantDeg) {
					return fmt.Errorf("rank %d: element %d (global %d) = %v, want degree %d",
						c.Rank(), u, iv.Lo+int64(u), v.Data[u], wantDeg)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		world.Close()
	}
}

func TestUnpermuteRoundTrip(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 2)
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		v := rt.NewVector()
		v.SetByGlobal(func(gid int64) float64 { return float64(gid) })
		full, err := rt.GatherGlobal(0, v)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		orig, err := rt.Unpermute(full)
		if err != nil {
			return err
		}
		perm := rt.Perm()
		for o := 0; o < g.N; o++ {
			if orig[o] != float64(perm[o]) {
				return fmt.Errorf("Unpermute[%d] = %v, want %v", o, orig[o], float64(perm[o]))
			}
		}
		if _, err := rt.Unpermute(full[:3]); err == nil {
			return fmt.Errorf("short vector accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigErrors(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 2)
	if _, err := New(nil, g, Config{}); err == nil {
		t.Error("nil comm accepted")
	}
	if _, err := New(world.Comm(0), nil, Config{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(world.Comm(0), g, Config{Weights: []float64{1}}); err == nil {
		t.Error("short weights accepted")
	}
	if _, err := New(world.Comm(0), g, Config{Order: order.Morton, Weights: []float64{1, 1}}); err == nil {
		// testMesh has coords, so use a graph without them.
		bare, _ := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, nil)
		if _, err := New(world.Comm(0), bare, Config{Order: order.Morton, Weights: []float64{1, 1}}); err == nil {
			t.Error("failing ordering accepted")
		}
	}
}

func TestForeignVectorRejected(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 1)
	rtA, err := New(world.Comm(0), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rtB, err := New(world.Comm(0), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := rtA.NewVector()
	if err := rtB.Exchange(v); err == nil {
		t.Error("foreign vector accepted by Exchange")
	}
	if err := rtB.ScatterAdd(v); err == nil {
		t.Error("foreign vector accepted by ScatterAdd")
	}
	if _, err := rtB.GatherGlobal(0, v); err == nil {
		t.Error("foreign vector accepted by GatherGlobal")
	}
	if _, err := rtA.Remap([]float64{1, 1}); err == nil {
		t.Error("wrong-length remap weights accepted")
	}
}

func TestMultipleVectorsSurviveRemap(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 3)
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		a := rt.NewVector()
		b := rt.NewVector()
		a.SetByGlobal(func(gid int64) float64 { return float64(gid) })
		b.SetByGlobal(func(gid int64) float64 { return float64(-gid) })
		if _, err := rt.Remap([]float64{3, 1, 2}); err != nil {
			return err
		}
		iv := rt.globalInterval()
		for u := 0; u < rt.LocalN(); u++ {
			gid := iv.Lo + int64(u)
			if a.Data[u] != float64(gid) {
				return fmt.Errorf("vector a corrupted at global %d: %v", gid, a.Data[u])
			}
			if b.Data[u] != float64(-gid) {
				return fmt.Errorf("vector b corrupted at global %d: %v", gid, b.Data[u])
			}
		}
		if len(a.Data) != rt.LocalN()+rt.Schedule().NGhosts() {
			return fmt.Errorf("vector a not resized for new schedule")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	g, err := mesh.GridTriangulated(8, 8, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 3
	want := seqReference(t, g, order.RCB, iters)
	world, err := comm.Open("tcp", 3, comm.TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	var got []float64
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		v := rt.NewVector()
		v.SetByGlobal(initValue)
		if err := parKernel(rt, v, iters); err != nil {
			return err
		}
		full, err := rt.GatherGlobal(0, v)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			got = full
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TCP element %d = %v, want %v", i, got[i], want[i])
		}
	}
}
