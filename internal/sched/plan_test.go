package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// planSchedule is a small hand-built schedule for rank 1 of 3:
// sends locals {0,2} to rank 0 and {1} to rank 2; receives 2 ghosts
// from rank 0 (slots 0,1) and 1 from rank 2 (slot 2).
func planSchedule() *Schedule {
	return &Schedule{
		Rank:     1,
		NProcs:   3,
		NLocal:   4,
		Ghosts:   []int64{0, 1, 9},
		SendIdx:  [][]int32{{0, 2}, nil, {1}},
		RecvSlot: [][]int32{{0, 1}, nil, {2}},
	}
}

func TestCompileTables(t *testing.T) {
	p := Compile(planSchedule())
	if got := p.SendPeers(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("SendPeers = %v", got)
	}
	if got := p.RecvPeers(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("RecvPeers = %v", got)
	}
	if got := p.LocalIdx(0); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("LocalIdx(0) = %v", got)
	}
	// Ghost indices are absolute: NLocal + slot.
	if got := p.GhostIdx(0); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("GhostIdx(0) = %v", got)
	}
	if got := p.GhostIdx(2); len(got) != 1 || got[0] != 6 {
		t.Fatalf("GhostIdx(2) = %v", got)
	}
	if p.Rank() != 1 || p.NProcs() != 3 || p.NLocal() != 4 {
		t.Fatalf("identity = %d/%d/%d", p.Rank(), p.NProcs(), p.NLocal())
	}
}

func TestPlanPackUnpackRoundTrip(t *testing.T) {
	p := Compile(planSchedule())
	// Vector layout: 4 owned + 3 ghosts.
	v := []float64{10, 11, 12, 13, 0, 0, 0}
	buf := p.PackLocal(0, [][]float64{v})
	if len(buf) != 16 {
		t.Fatalf("packed %d bytes, want 16", len(buf))
	}
	// Unpacking the same payload as if it were ghost data from peer 0
	// must land values 10, 12 in slots 0, 1.
	w := make([]float64, 7)
	if err := p.UnpackGhost(0, buf, [][]float64{w}); err != nil {
		t.Fatal(err)
	}
	if w[4] != 10 || w[5] != 12 {
		t.Fatalf("ghost section = %v", w[4:])
	}
	// AddLocal accumulates into the owned elements.
	if err := p.AddLocal(0, buf, [][]float64{w}); err != nil {
		t.Fatal(err)
	}
	if w[0] != 10 || w[2] != 12 {
		t.Fatalf("owned section after add = %v", w[:4])
	}
	// PackGhost reads the ghost section back out.
	g := p.PackGhost(2, [][]float64{w})
	if len(g) != 8 {
		t.Fatalf("ghost pack = %d bytes", len(g))
	}
}

func TestPlanCoalescedLayoutIsVectorMajor(t *testing.T) {
	p := Compile(planSchedule())
	a := []float64{1, 2, 3, 4, 0, 0, 0}
	b := []float64{5, 6, 7, 8, 0, 0, 0}
	buf := p.PackLocal(0, [][]float64{a, b})
	if len(buf) != 32 {
		t.Fatalf("coalesced pack = %d bytes, want 32", len(buf))
	}
	want := []float64{1, 3, 5, 7} // a's segment, then b's
	for i, x := range want {
		bits := uint64(0)
		for j := 0; j < 8; j++ {
			bits |= uint64(buf[8*i+j]) << (8 * j)
		}
		if math.Float64frombits(bits) != x {
			t.Fatalf("wire element %d = %v, want %v", i, math.Float64frombits(bits), x)
		}
	}
}

func TestPlanWireBufferReused(t *testing.T) {
	p := Compile(planSchedule())
	v := make([]float64, 7)
	b1 := p.PackLocal(0, [][]float64{v})
	b2 := p.PackLocal(0, [][]float64{v})
	if &b1[0] != &b2[0] {
		t.Error("single-vector pack did not reuse the wire buffer")
	}
	// A coalesced pack grows the buffer once, then reuses it.
	b3 := p.PackLocal(0, [][]float64{v, v, v})
	b4 := p.PackLocal(0, [][]float64{v, v, v})
	if &b3[0] != &b4[0] {
		t.Error("coalesced pack did not retain the grown buffer")
	}
}

func TestPlanUnpackLengthMismatch(t *testing.T) {
	p := Compile(planSchedule())
	v := make([]float64, 7)
	if err := p.UnpackGhost(0, make([]byte, 8), [][]float64{v}); err == nil {
		t.Error("short payload accepted by UnpackGhost")
	}
	if err := p.AddLocal(0, make([]byte, 24), [][]float64{v}); err == nil {
		t.Error("long payload accepted by AddLocal")
	}
}

// randomLocalCSR draws a localized CSR of nLocal rows whose references
// reach into a ghost section of nGhost slots; about one row in five
// references a ghost, and degree-0 rows occur.
func randomLocalCSR(rng *rand.Rand, nLocal, nGhost int) (xadj, adj []int32) {
	xadj = make([]int32, nLocal+1)
	for u := 0; u < nLocal; u++ {
		deg := rng.Intn(9)
		ghostly := nGhost > 0 && rng.Intn(5) == 0
		for k := 0; k < deg; k++ {
			ref := rng.Intn(nLocal)
			if ghostly && k == deg-1 {
				ref = nLocal + rng.Intn(nGhost)
			}
			adj = append(adj, int32(ref))
		}
		xadj[u+1] = int32(len(adj))
	}
	return xadj, adj
}

// TestClassifyPlanOrder pins what Classify promises a kernel about the
// two row lists: together they partition [0, NLocal) exactly, interior
// rows reference no ghost and boundary rows at least one, and each list
// is the ascending list regrouped window by window — every window holds
// the same rows ascending order would put there, by non-decreasing
// degree and ascending within a degree. Reclassifying a plan (what a
// runtime does when the structure changes under the same layout) must
// reuse the lists.
func TestClassifyPlanOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, nLocal := range []int{0, 1, 3, rowWindow - 1, rowWindow, rowWindow + 1, 5*rowWindow + 17} {
		const nGhost = 40
		xadj, adj := randomLocalCSR(rng, nLocal, nGhost)
		p := Compile(&Schedule{NProcs: 1, NLocal: nLocal, SendIdx: [][]int32{nil}, RecvSlot: [][]int32{nil}})
		if err := p.Classify(xadj, adj); err != nil {
			t.Fatal(err)
		}
		deg := func(u int32) int32 { return xadj[u+1] - xadj[u] }
		seen := make([]bool, nLocal)
		for li, rows := range [][]int32{p.InteriorRows().Idx, p.BoundaryRows().Idx} {
			for _, u := range rows {
				if seen[u] {
					t.Fatalf("nLocal=%d: row %d listed twice", nLocal, u)
				}
				seen[u] = true
				ghost := false
				for _, ref := range adj[xadj[u]:xadj[u+1]] {
					ghost = ghost || int(ref) >= nLocal
				}
				if ghost != (li == 1) {
					t.Fatalf("nLocal=%d: row %d references a ghost: %v, but is in list %d", nLocal, u, ghost, li)
				}
			}
			for lo := 0; lo < len(rows); lo += rowWindow {
				w := rows[lo:min(lo+rowWindow, len(rows))]
				for i := 1; i < len(w); i++ {
					if a, b := w[i-1], w[i]; deg(a) > deg(b) || deg(a) == deg(b) && a >= b {
						t.Fatalf("nLocal=%d list %d window %d: row %d (degree %d) precedes row %d (degree %d)",
							nLocal, li, lo, a, deg(a), b, deg(b))
					}
				}
				if lo > 0 && slices.Max(rows[lo-rowWindow:lo]) >= slices.Min(w) {
					t.Fatalf("nLocal=%d list %d: window %d holds a row below one of the window before it", nLocal, li, lo)
				}
			}
		}
		for u, ok := range seen {
			if !ok {
				t.Fatalf("nLocal=%d: row %d in neither list", nLocal, u)
			}
		}
		checkChunkViews(t, p, xadj, adj)
		if allocs := testing.AllocsPerRun(10, func() {
			if err := p.Classify(xadj, adj); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("nLocal=%d: a second Classify allocates %v times, want 0", nLocal, allocs)
		}
	}
	if err := Compile(planSchedule()).Classify(make([]int32, 3), nil); err == nil {
		t.Error("Classify accepted a CSR of the wrong row count")
	}
	if err := Compile(planSchedule()).ClassifyRows([]int32{0, 1, 2, 3, 4}, make([]int32, 3), 0, nil, nil); err == nil {
		t.Error("ClassifyRows accepted fewer references than the row offsets span")
	}
}

// oracleChunks builds a row list's chunk table the plain way: chunk c —
// rows[8c:8c+8], or fewer at the end — holds its rows' references
// interleaved when it has eight rows of one degree d > 0, and one row
// after another otherwise.
func oracleChunks(rows, xadj, adj []int32) (off, refs []int32, interleaved []bool) {
	off = []int32{0}
	for lo := 0; lo < len(rows); lo += ChunkRows {
		chunk := rows[lo:min(lo+ChunkRows, len(rows))]
		d := xadj[chunk[0]+1] - xadj[chunk[0]]
		lanes := len(chunk) == ChunkRows && d > 0
		for _, u := range chunk {
			lanes = lanes && xadj[u+1]-xadj[u] == d
		}
		for k := int32(0); lanes && k < d; k++ {
			for _, u := range chunk {
				refs = append(refs, adj[xadj[u]+k])
			}
		}
		for _, u := range chunk {
			if !lanes {
				refs = append(refs, adj[xadj[u]:xadj[u+1]]...)
			}
		}
		off = append(off, int32(len(refs)))
		interleaved = append(interleaved, lanes)
	}
	return off, refs, interleaved
}

// checkChunkViews holds a classified plan's Rows to the row offsets it
// was classified against and the oracle's chunk tables of its lists.
func checkChunkViews(t *testing.T, p *Plan, xadj, adj []int32) {
	t.Helper()
	for li, r := range []Rows{p.InteriorRows(), p.BoundaryRows()} {
		if !slices.Equal(r.Xadj, xadj) {
			t.Fatalf("nLocal=%d list %d: Rows carries other row offsets", p.NLocal(), li)
		}
		off, refs, lanes := oracleChunks(r.Idx, xadj, adj)
		if !slices.Equal(r.ChunkOff, off) || !slices.Equal(r.ChunkAdj, refs) || !slices.Equal(r.Interleaved, lanes) {
			t.Fatalf("nLocal=%d list %d: chunk table (%d offsets, %d references) differs from the oracle's (%d, %d)",
				p.NLocal(), li, len(r.ChunkOff), len(r.ChunkAdj), len(off), len(refs))
		}
	}
}

// TestClassifyRowsLocalizes: classifying a rank's rows of a global CSR
// in place — offsets that do not start at zero, local references off by
// the interval's start, ghosts by global index on both sides of the
// interval — yields the lists and chunk tables Classify makes from the
// localized CSR, and a reference missing from the ghost list is an
// error.
func TestClassifyRowsLocalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, nLocal := range []int{0, 1, 9, rowWindow + 3, 3*rowWindow + 17} {
		const nGhost, lo, skip = 30, 500, 7
		xadj, adj := randomLocalCSR(rng, nLocal, nGhost)
		// Half the ghosts lie below the interval, half past it.
		ghosts := make([]int64, nGhost)
		for i := range ghosts {
			ghosts[i] = int64(2 * i)
			if i >= nGhost/2 {
				ghosts[i] = int64(lo + nLocal + i)
			}
		}
		gxadj := make([]int32, len(xadj))
		for u, x := range xadj {
			gxadj[u] = x + skip
		}
		gadj := make([]int32, skip, skip+len(adj))
		var boundary []int32
		for u := 0; u < nLocal; u++ {
			for _, r := range adj[xadj[u]:xadj[u+1]] {
				g := r + lo
				if int(r) >= nLocal {
					g = int32(ghosts[int(r)-nLocal])
					if len(boundary) == 0 || boundary[len(boundary)-1] != int32(u) {
						boundary = append(boundary, int32(u))
					}
				}
				gadj = append(gadj, g)
			}
		}
		s := &Schedule{NProcs: 1, NLocal: nLocal, SendIdx: [][]int32{nil}, RecvSlot: [][]int32{nil}}
		want, got := Compile(s), Compile(s)
		if err := want.Classify(xadj, adj); err != nil {
			t.Fatal(err)
		}
		if err := got.ClassifyRows(gxadj, gadj, lo, ghosts, boundary); err != nil {
			t.Fatal(err)
		}
		for li, pair := range [][2]Rows{{got.InteriorRows(), want.InteriorRows()}, {got.BoundaryRows(), want.BoundaryRows()}} {
			g, w := pair[0], pair[1]
			if !slices.Equal(g.Idx, w.Idx) || !slices.Equal(g.ChunkOff, w.ChunkOff) ||
				!slices.Equal(g.ChunkAdj, w.ChunkAdj) || !slices.Equal(g.Interleaved, w.Interleaved) {
				t.Fatalf("nLocal=%d list %d: the in-place classification differs from the localized one", nLocal, li)
			}
		}
		if len(boundary) > 0 {
			if err := got.ClassifyRows(gxadj, gadj, lo, ghosts[:0], boundary); err == nil {
				t.Errorf("nLocal=%d: ClassifyRows accepted a reference missing from the ghost list", nLocal)
			}
		}
	}
}

// TestChunkViewsKeepTheirStorage: reclassifying a recompiled plan — what
// a runtime does on every rebuild — builds the chunked views in the old
// plan's tables, which grow only to exactly what a larger list needs,
// and leaves nothing of the previous views behind; an unclassified plan
// hands out views that cover nothing.
func TestChunkViewsKeepTheirStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sched := func(n int) *Schedule {
		return &Schedule{NProcs: 1, NLocal: n, SendIdx: [][]int32{nil}, RecvSlot: [][]int32{nil}}
	}
	var p *Plan
	for i, nLocal := range []int{600, 300, 40, 2000, 7, 0, 900} {
		xadj, adj := randomLocalCSR(rng, nLocal, 30)
		p = Recompile(p, sched(nLocal))
		if r := p.InteriorRows(); len(r.Idx) != 0 || len(r.ChunkOff) != 0 || len(r.ChunkAdj) != 0 || len(r.Interleaved) != 0 {
			t.Fatalf("step %d: recompiled plan hands out a view before it is classified", i)
		}
		before := cap(p.InteriorRows().ChunkAdj)
		if err := p.Classify(xadj, adj); err != nil {
			t.Fatal(err)
		}
		checkChunkViews(t, p, xadj, adj)
		if r := p.InteriorRows(); cap(r.ChunkAdj) != max(before, len(r.ChunkAdj)) {
			t.Fatalf("step %d: interior chunk table has capacity %d for %d references (it had %d)",
				i, cap(r.ChunkAdj), len(r.ChunkAdj), before)
		}
	}
}
