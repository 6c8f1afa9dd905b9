package core

import (
	"fmt"
	"testing"

	"stance/internal/comm"
	"stance/internal/mesh"
	"stance/internal/order"
)

// phaseBWords counts, by slice capacity, the 32-bit words of the tables
// Phase B leaves behind on a rank: the pass's off-interval references
// (64-bit, two words each), their row offsets and the boundary rows, the
// plan's two row lists and their chunk tables (the chunk forms a byte
// each), and the per-peer exchange tables.
func phaseBWords(rt *Runtime) int {
	words := cap(rt.off.Xadj) + 2*cap(rt.off.Adj) + cap(rt.boundaryRows)
	p := rt.Plan()
	for _, r := range []struct{ idx, off, adj []int32 }{
		{p.InteriorRows().Idx, p.InteriorRows().ChunkOff, p.InteriorRows().ChunkAdj},
		{p.BoundaryRows().Idx, p.BoundaryRows().ChunkOff, p.BoundaryRows().ChunkAdj},
	} {
		words += cap(r.idx) + cap(r.off) + cap(r.adj)
	}
	words += (cap(p.InteriorRows().Interleaved) + cap(p.BoundaryRows().Interleaved) + 3) / 4
	for q := 0; q < p.NProcs(); q++ {
		words += len(p.LocalIdx(q)) + len(p.GhostIdx(q))
	}
	return words
}

// TestPhaseBKeepsOneAdjacency pins what a rank stores on the benchmark's
// kernel-p2 shape — a 300 x 300 perturbed triangulated grid cut two ways
// under RCB: Phase B's retained tables hold at most 1.1 times the rank's
// adjacency entries plus three words a row, where a localized CSR beside
// the chunk tables came to about twice the entries. Counted by capacity,
// not RSS, so the figure is exact. The tables keep their high-water
// storage, so after a remap to 3:1 and back the bound holds against the
// largest interval the rank has held. The transform's graph carries no
// coordinates: the ordering has read them, and nothing after it does.
func TestPhaseBKeepsOneAdjacency(t *testing.T) {
	g, err := mesh.GridTriangulated(300, 300, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransform(g, Config{Order: order.RCB})
	if err != nil {
		t.Fatal(err)
	}
	if g.Coords == nil || tr.tg.Coords != nil {
		t.Fatalf("the transform of a graph with coordinates (%v) keeps %d of them", g.Coords != nil, len(tr.tg.Coords))
	}
	world, err := comm.Open("inproc", 2, comm.TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB, Transform: tr})
		if err != nil {
			return err
		}
		rt.NewVector()
		entries, rows := 0, 0
		for _, step := range []struct {
			label string
			w     []float64
		}{{"bind", nil}, {"remap to 3:1", []float64{3, 1}}, {"remap back", []float64{1, 1}}} {
			if step.w != nil {
				if _, err := rt.Remap(step.w); err != nil {
					return err
				}
			}
			iv := rt.globalInterval()
			entries = max(entries, int(rt.tg.Xadj[iv.Hi]-rt.tg.Xadj[iv.Lo]))
			rows = max(rows, rt.LocalN())
			words := phaseBWords(rt)
			t.Logf("rank %d after %s: %d words for %d entries and %d rows (%.3f words per entry)",
				c.Rank(), step.label, words, entries, rows, float64(words)/float64(entries))
			if 10*words > 11*entries+30*rows {
				return fmt.Errorf("rank %d after %s: Phase B keeps %d words for %d adjacency entries and %d rows, want at most 1.1 x entries + 3 x rows",
					c.Rank(), step.label, words, entries, rows)
			}
			if rt.tg.Coords != nil {
				return fmt.Errorf("rank %d after %s: the transformed graph carries coordinates", c.Rank(), step.label)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
