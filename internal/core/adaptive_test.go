package core

import (
	"fmt"
	"strings"
	"testing"

	"stance/internal/comm"
	"stance/internal/graph"
	"stance/internal/mesh"
	"stance/internal/order"
)

// refineMesh returns the grid mesh plus extra diagonal edges — a stand
// in for an application whose interaction structure adapts mid-run.
func refineMesh(t *testing.T) (*graph.Graph, *graph.Graph) {
	t.Helper()
	coarse, err := mesh.GridTriangulated(9, 9, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	edges := coarse.Edges()
	id := func(x, y int) int32 { return int32(y*9 + x) }
	for y := 0; y+1 < 9; y++ {
		for x := 0; x+1 < 9; x++ {
			// Add the anti-diagonal where only the main one existed.
			u, v := id(x+1, y), id(x, y+1)
			present := false
			for _, w := range coarse.Neighbors(int(u)) {
				if w == v {
					present = true
					break
				}
			}
			if !present {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	fine, err := graph.FromEdges(coarse.N, edges, coarse.Coords)
	if err != nil {
		t.Fatal(err)
	}
	return coarse, fine
}

func TestSetGraphAdaptsTheInspector(t *testing.T) {
	coarse, fine := refineMesh(t)
	const itersBefore, itersAfter = 3, 3

	// Sequential reference: run on the coarse graph, then continue on
	// the refined one, under the same RCB order of the coarse graph.
	perm, err := order.RCB(coarse)
	if err != nil {
		t.Fatal(err)
	}
	tgCoarse, err := coarse.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	tgFine, err := fine.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, tgCoarse.N)
	for i := range want {
		want[i] = initValue(int64(i))
	}
	seqKernel(tgCoarse, want, itersBefore)
	seqKernel(tgFine, want, itersAfter)

	world := openWorld(t, 3)
	var got []float64
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, coarse, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		v := rt.NewVector()
		v.SetByGlobal(initValue)
		if err := parKernel(rt, v, itersBefore); err != nil {
			return err
		}
		oldGhosts := rt.Schedule().NGhosts()
		if err := rt.SetGraph(fine); err != nil {
			return err
		}
		if rt.Schedule().NGhosts() < oldGhosts {
			return fmt.Errorf("refinement should not shrink the ghost set (%d -> %d)",
				oldGhosts, rt.Schedule().NGhosts())
		}
		if len(v.Data) != rt.LocalN()+rt.Schedule().NGhosts() {
			return fmt.Errorf("vector not resized after SetGraph")
		}
		checkSplit(t, rt, "after SetGraph")
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
			t.Fatalf("diverged at %d after adaptation: %v != %v", i, got[i], want[i])
		}
	}
}

func TestSetGraphValidation(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 1)
	rt, err := New(world.Comm(0), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetGraph(nil); err == nil {
		t.Error("nil graph accepted")
	}
	small, err := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetGraph(small); err == nil {
		t.Error("vertex-count change accepted")
	}
}

// TestSetGraphOnParkedRank: a parked rank has no inspector to re-run, so
// SetGraph only swaps the graph in, and the rank's re-admission builds on
// it — the run stays bit-exact against the sequential one that switches
// graphs at the same iteration.
func TestSetGraphOnParkedRank(t *testing.T) {
	coarse, fine := refineMesh(t)
	perm, err := order.RCB(coarse)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, coarse.N)
	for i := range want {
		want[i] = initValue(int64(i))
	}
	for _, g := range []*graph.Graph{coarse, fine} {
		tg, err := g.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		seqKernel(tg, want, 2)
	}
	world, err := comm.Open("inproc", 3, comm.TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	all, survivors := []int{0, 1, 2}, []int{0, 1}
	var got []float64
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, coarse, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		v := rt.NewVector()
		v.SetByGlobal(initValue)
		if err := parKernel(rt, v, 2); err != nil {
			return err
		}
		full := rt.Layout()
		shrunk, err := rt.CutLayout([]float64{1, 1})
		if err != nil {
			return err
		}
		var sub *comm.Comm
		if c.Rank() < 2 {
			if sub, err = c.Sub(survivors); err != nil {
				return err
			}
		}
		if _, err := rt.Rebind(Rebind{Carrier: c, Sub: sub, Old: full, New: shrunk, OldProcs: all, NewProcs: survivors}); err != nil {
			return err
		}
		if err := rt.SetGraph(fine); err != nil {
			return fmt.Errorf("rank %d: SetGraph: %w", c.Rank(), err)
		}
		if c.Rank() == 2 && (!rt.Parked() || rt.Plan() != nil) {
			return fmt.Errorf("SetGraph on a parked rank left it parked=%v with a plan", rt.Parked())
		}
		if rt.tg.Coords != nil {
			return fmt.Errorf("rank %d: SetGraph kept the coordinates", c.Rank())
		}
		if sub, err = c.Sub(all); err != nil {
			return err
		}
		if _, err := rt.Rebind(Rebind{Carrier: c, Sub: sub, Old: shrunk, New: full, OldProcs: survivors, NewProcs: all}); err != nil {
			return err
		}
		if err := checkOracle(rt, oracleSort2); err != nil {
			return fmt.Errorf("rank %d after re-admission: %w", c.Rank(), err)
		}
		if err := parKernel(rt, v, 2); err != nil {
			return err
		}
		res, err := rt.GatherGlobal(0, v)
		if c.Rank() == 0 {
			got = res
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diverged at %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestSetGraphRefusesLiveHandles: like Bind, Remap and Rebind, SetGraph
// would rebuild the plan live split-phase handles replay, so it returns
// the error Remap returns and changes nothing; once the handle is waited
// on, it goes through.
func TestSetGraphRefusesLiveHandles(t *testing.T) {
	coarse, fine := refineMesh(t)
	world, err := comm.Open("inproc", 2, comm.TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, coarse, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		v := rt.NewVector()
		h, err := rt.ExchangeStart(v)
		if err != nil {
			return err
		}
		plan := rt.Plan()
		_, remapErr := rt.Remap([]float64{2, 1})
		setErr := rt.SetGraph(fine)
		if setErr == nil || remapErr == nil ||
			setErr.Error() != strings.Replace(remapErr.Error(), "Remap", "SetGraph", 1) {
			return fmt.Errorf("with a live handle SetGraph returned %v, Remap %v", setErr, remapErr)
		}
		if rt.Plan() != plan {
			return fmt.Errorf("a refused SetGraph rebuilt the plan")
		}
		if err := h.Wait(); err != nil {
			return err
		}
		if err := rt.SetGraph(fine); err != nil {
			return err
		}
		return checkOracle(rt, oracleSort2)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeAllMatchesSeparateExchanges(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 3)
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		a := rt.NewVector()
		b := rt.NewVector()
		cv := rt.NewVector()
		a.SetByGlobal(func(gid int64) float64 { return float64(gid) })
		b.SetByGlobal(func(gid int64) float64 { return float64(-gid) })
		cv.SetByGlobal(func(gid int64) float64 { return float64(gid * gid) })
		// Reference: separate exchanges into copies.
		ra := rt.NewVector()
		rb := rt.NewVector()
		rc := rt.NewVector()
		copy(ra.Data, a.Data)
		copy(rb.Data, b.Data)
		copy(rc.Data, cv.Data)
		if err := rt.Exchange(ra); err != nil {
			return err
		}
		if err := rt.Exchange(rb); err != nil {
			return err
		}
		if err := rt.Exchange(rc); err != nil {
			return err
		}
		if err := rt.ExchangeAll(a, b, cv); err != nil {
			return err
		}
		for i := range a.Data {
			if a.Data[i] != ra.Data[i] || b.Data[i] != rb.Data[i] || cv.Data[i] != rc.Data[i] {
				return fmt.Errorf("coalesced exchange diverged at %d", i)
			}
		}
		// Message count: the coalesced round used one message per
		// peer, not one per vector per peer.
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeAllEdgeCases(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 1)
	rt, err := New(world.Comm(0), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.ExchangeAll(); err != nil {
		t.Errorf("empty ExchangeAll: %v", err)
	}
	v := rt.NewVector()
	if err := rt.ExchangeAll(v); err != nil {
		t.Errorf("single-vector ExchangeAll: %v", err)
	}
	rt2, err := New(world.Comm(0), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	foreign := rt2.NewVector()
	if err := rt.ExchangeAll(v, foreign); err == nil {
		t.Error("foreign vector accepted")
	}
}

func TestCoalescingSavesMessages(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 2)
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		a, b := rt.NewVector(), rt.NewVector()
		before, _ := c.Stats()
		if err := rt.ExchangeAll(a, b); err != nil {
			return err
		}
		afterCoalesced, _ := c.Stats()
		if err := rt.Exchange(a); err != nil {
			return err
		}
		if err := rt.Exchange(b); err != nil {
			return err
		}
		afterSeparate, _ := c.Stats()
		coalesced := afterCoalesced - before
		separate := afterSeparate - afterCoalesced
		if coalesced*2 != separate {
			return fmt.Errorf("coalesced round sent %d messages, separate rounds %d (want half)",
				coalesced, separate)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
