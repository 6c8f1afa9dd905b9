package core

import (
	"fmt"
	"math"
	"testing"

	"stance/internal/comm"
	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/partition"
	"stance/internal/redist"
)

func TestWeightedRuntimeBalancesVertexWeight(t *testing.T) {
	// A random geometric mesh has wildly varying degrees; with
	// degree-proportional vertex weights, each rank's block must carry
	// nearly equal total degree even though the vertex counts differ.
	g, err := mesh.RandomGeometric(600, 0.08, 21)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, g.N)
	total := 0.0
	maxW := 0.0
	for v := 0; v < g.N; v++ {
		weights[v] = float64(g.Degree(v)) + 1
		total += weights[v]
		if weights[v] > maxW {
			maxW = weights[v]
		}
	}
	const p = 4
	world := openWorld(t, p)
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB, VertexWeights: weights})
		if err != nil {
			return err
		}
		// This rank's block weight must be within one max-weight item
		// of the fair share.
		iv := rt.globalInterval()
		blockW := 0.0
		perm := rt.Perm()
		inv := make([]int32, g.N)
		for orig, nw := range perm {
			inv[nw] = int32(orig)
		}
		for gid := iv.Lo; gid < iv.Hi; gid++ {
			blockW += weights[inv[gid]]
		}
		fair := total / p
		if math.Abs(blockW-fair) > maxW+1e-9 {
			return fmt.Errorf("rank %d block weight %.1f, fair share %.1f (max item %.1f)",
				c.Rank(), blockW, fair, maxW)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWeightedRuntimeMatchesSequential(t *testing.T) {
	g, err := mesh.GridTriangulated(10, 12, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, g.N)
	for v := 0; v < g.N; v++ {
		weights[v] = float64(g.Degree(v))
	}
	const iters = 5
	want := seqReference(t, g, order.RCB, iters)
	got := runParallel(t, g, 3, iters, Config{Order: order.RCB, VertexWeights: weights})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("weighted runtime diverged at %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestWeightedRemapPreservesComputation(t *testing.T) {
	g, err := mesh.GridTriangulated(10, 12, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, g.N)
	for v := 0; v < g.N; v++ {
		weights[v] = float64(g.Degree(v))
	}
	const before, after = 3, 3
	want := seqReference(t, g, order.RCB, before+after)
	world := openWorld(t, 3)
	var got []float64
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB, VertexWeights: weights})
		if err != nil {
			return err
		}
		v := rt.NewVector()
		v.SetByGlobal(initValue)
		if err := parKernel(rt, v, before); err != nil {
			return err
		}
		if _, err := rt.Remap([]float64{2, 1, 1}); err != nil {
			return err
		}
		if err := parKernel(rt, v, after); err != nil {
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
			t.Fatalf("diverged at %d after weighted remap", i)
		}
	}
}

func TestVertexWeightsValidation(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 1)
	if _, err := New(world.Comm(0), g, Config{VertexWeights: []float64{1, 2}}); err == nil {
		t.Error("short vertex weights accepted")
	}
}

func TestWeightedMCRKeepsOverlapAdvantage(t *testing.T) {
	// Weighted MCR must still beat keep-arrangement on moved volume.
	items := make([]float64, 400)
	for i := range items {
		items[i] = 1 + float64(i%7)
	}
	old, err := partition.NewWeighted(items, []float64{0.27, 0.18, 0.34, 0.07, 0.14}, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	newW := []float64{0.10, 0.13, 0.29, 0.24, 0.24}
	mcr, err := redist.IteratedWeighted(old, items, newW, redist.OverlapCost)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := partition.NewWeighted(items, newW, old.Arrangement())
	if err != nil {
		t.Fatal(err)
	}
	ovMCR, err := partition.Overlap(old, mcr)
	if err != nil {
		t.Fatal(err)
	}
	ovKeep, err := partition.Overlap(old, keep)
	if err != nil {
		t.Fatal(err)
	}
	if ovMCR < ovKeep {
		t.Errorf("weighted MCR overlap %d worse than keep-arrangement %d", ovMCR, ovKeep)
	}
}
