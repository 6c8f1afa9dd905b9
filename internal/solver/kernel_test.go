package solver

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/sched"
)

func testSolver(t *testing.T) *Solver {
	t.Helper()
	g, err := mesh.Honeycomb(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	world := openWorld(t, 1)
	rt, err := core.New(world.Comm(0), g, core.Config{Order: order.RCB})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(rt, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKernelRegistry(t *testing.T) {
	for _, name := range []string{"figure8", "cg"} {
		if _, err := KernelByName(name); err != nil {
			t.Error(err)
		}
		if !strings.Contains(KernelNames(), name) {
			t.Errorf("KernelNames() = %q, want it to list %q", KernelNames(), name)
		}
	}
	if _, err := KernelByName("nope"); err == nil || !strings.Contains(err.Error(), "figure8") {
		t.Errorf("unknown kernel error %v should list the registry", err)
	}
}

func TestCGKernel(t *testing.T) {
	k, err := KernelByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	// A 4-cycle: every vertex has degree 2.
	xadj := []int32{0, 2, 4, 6, 8}
	adj := []int32{1, 3, 0, 2, 1, 3, 0, 2}
	data := []float64{1, 2, 3, 4}

	// Sweep's aggregate is tv[u] = 0.5*(deg*x[u] + Σ neighbors); divided
	// by the degree that is (x + avg(neighbors)) / 2.
	want := []float64{
		0.5 * (2*1 + (2 + 4)),
		0.5 * (2*2 + (1 + 3)),
		0.5 * (2*3 + (2 + 4)),
		0.5 * (2*4 + (1 + 3)),
	}
	tv := make([]float64, 4)
	CG{}.Sweep(data, xadj, adj, tv, 0, 4)
	for u := range want {
		if tv[u] != want[u] {
			t.Errorf("Sweep tv[%d] = %v, want %v", u, tv[u], want[u])
		}
	}

	// The split form yields the divided value bit for bit.
	next := make([]float64, 4)
	k.UpdateRows(data, chunkedRows(xadj, adj, []int32{1, 3}), next)
	k.UpdateRows(data, chunkedRows(xadj, adj, []int32{0, 2}), next)
	for u := range want {
		if next[u] != tv[u]/2 {
			t.Errorf("UpdateRows next[%d] = %v, Sweep and the divide gave %v", u, next[u], tv[u]/2)
		}
	}
}

func TestSetPipelineValidation(t *testing.T) {
	s := testSolver(t)
	if err := s.SetPipeline(-1); err == nil {
		t.Fatal("negative depth accepted")
	}
	if err := s.SetKernel(nil); err == nil {
		t.Fatal("SetKernel(nil) succeeded")
	}
	// SetOverlap is the benchmark-pinned spelling of depth 1 / depth 0;
	// like every setter, the last call wins.
	for _, c := range []struct {
		set  func() error
		want int
	}{
		{func() error { return s.SetPipeline(2) }, 2},
		{func() error { return s.SetOverlap(true) }, 1},
		{func() error { return s.SetOverlap(false) }, 0},
	} {
		if err := c.set(); err != nil {
			t.Fatal(err)
		}
		if s.Pipeline() != c.want {
			t.Fatalf("depth = %d, want %d", s.Pipeline(), c.want)
		}
		// Step is valid at every depth and always returns drained.
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if n := s.Runtime().LiveOps(); n != 0 {
			t.Fatalf("depth %d: %d live ops after Step", c.want, n)
		}
	}
}

// sweepCase is a localized CSR of len(xadj)-1 rows, a vector with its
// ghost section, and a duplicate-free row list in arbitrary order.
type sweepCase struct {
	xadj, adj []int32
	data      []float64
	idx       []int32
}

// specials are the payloads floating-point shortcuts get wrong: a sum
// must propagate them exactly as the one-row-at-a-time loop does.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	5e-324, -2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64,
}

// newSweepCase builds a case from per-row degrees: references fall
// anywhere in the local or the ghost section, every fourth value or so
// is a special, and the list is listLen rows drawn without repetition.
func newSweepCase(rng *rand.Rand, degs []int, nGhost, listLen int) sweepCase {
	nLocal := len(degs)
	c := sweepCase{xadj: make([]int32, nLocal+1), data: make([]float64, nLocal+nGhost)}
	for u, d := range degs {
		for k := 0; k < d; k++ {
			c.adj = append(c.adj, int32(rng.Intn(nLocal+nGhost)))
		}
		c.xadj[u+1] = int32(len(c.adj))
	}
	for i := range c.data {
		c.data[i] = rng.NormFloat64() * 1e3
		if rng.Intn(4) == 0 {
			c.data[i] = specials[rng.Intn(len(specials))]
		}
	}
	for _, u := range rng.Perm(nLocal)[:min(listLen, nLocal)] {
		c.idx = append(c.idx, int32(u))
	}
	return c
}

// sameBits compares two results bit for bit. Two NaNs compare equal
// whatever their payloads: which operand's payload an addition of two
// NaNs keeps is the instruction's operand order, the compiler's choice,
// not the kernel's (CG's reference loop and UpdateRows do differ there).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// referenceKernel is a built-in kernel with its contiguous reference
// loop beside the form the solver runs.
type referenceKernel interface {
	Kernel
	Sweep(data []float64, xadj, adj []int32, tv []float64, lo, hi int)
}

// Sweep is CG's reference loop, the counterpart of Figure8.Sweep: the
// aggregate tv[u] = 0.5·(deg·x + Σ) over the contiguous range [lo, hi),
// one row at a time, left for a separate divide-by-degree pass.
func (CG) Sweep(data []float64, xadj, adj []int32, tv []float64, lo, hi int) {
	for u := lo; u < hi; u++ {
		sum := 0.0
		for k := xadj[u]; k < xadj[u+1]; k++ {
			sum += data[adj[k]]
		}
		deg := float64(xadj[u+1] - xadj[u])
		tv[u] = 0.5 * (deg*data[u] + sum)
	}
}

// referenceUpdate is the iteration as the solver computed it before the
// divide moved into the kernel — the kernel's aggregates by the
// contiguous loop, then Solver.divide's loop, kept here as the oracle:
// y[u] = tv[u] / deg(u), a row without neighbors keeping its value. It
// returns the owned section's new values and leaves data alone.
func referenceUpdate(k referenceKernel, data []float64, xadj, adj []int32) []float64 {
	nLocal := len(xadj) - 1
	tv := make([]float64, nLocal)
	k.Sweep(data, xadj, adj, tv, 0, nLocal)
	y := append([]float64(nil), data[:nLocal]...)
	for u := 0; u < nLocal; u++ {
		if d := xadj[u+1] - xadj[u]; d > 0 {
			y[u] = tv[u] / float64(d)
		}
	}
	return y
}

var builtinKernels = []struct {
	name string
	k    referenceKernel
}{{"figure8", Figure8{}}, {"cg", CG{}}}

// chunkedRows is the Rows a plan hands a kernel for the list idx, built
// the plain way: chunk c — rows idx[8c:8c+8], or fewer at the end —
// holds its rows' references interleaved when it has eight rows of one
// degree d > 0, and one row after another otherwise.
func chunkedRows(xadj, adj, idx []int32) sched.Rows {
	r := sched.Rows{Idx: idx, Xadj: xadj, ChunkOff: []int32{0}}
	for lo := 0; lo < len(idx); lo += sched.ChunkRows {
		chunk := idx[lo:min(lo+sched.ChunkRows, len(idx))]
		d := xadj[chunk[0]+1] - xadj[chunk[0]]
		lanes := len(chunk) == sched.ChunkRows && d > 0
		for _, u := range chunk {
			lanes = lanes && xadj[u+1]-xadj[u] == d
		}
		for k := int32(0); lanes && k < d; k++ {
			for _, u := range chunk {
				r.ChunkAdj = append(r.ChunkAdj, adj[xadj[u]+k])
			}
		}
		for _, u := range chunk {
			if !lanes {
				r.ChunkAdj = append(r.ChunkAdj, adj[xadj[u]:xadj[u+1]]...)
			}
		}
		r.ChunkOff = append(r.ChunkOff, int32(len(r.ChunkAdj)))
		r.Interleaved = append(r.Interleaved, lanes)
	}
	return r
}

// byDegree returns idx ordered the way a plan window orders its rows:
// by degree, ascending within a degree.
func byDegree(xadj, idx []int32) []int32 {
	out := slices.Clone(idx)
	slices.SortFunc(out, func(a, b int32) int {
		if da, db := xadj[a+1]-xadj[a], xadj[b+1]-xadj[b]; da != db {
			return int(da - db)
		}
		return int(a - b)
	})
	return out
}

// sweepCoverage tallies what the checks ran through: whole chunks read
// interleaved and row after row, lists ending in a tail chunk of fewer
// than eight rows, and prefixes that cut an interleaved or a
// row-after-row chunk.
type sweepCoverage struct{ interleaved, rowAfterRow, tail, cutInterleaved, cutRowAfterRow int }

// checkSweepIdx runs both built-in kernels over the case's list, in its
// own order and grouped by degree, with the list's chunk table — whole,
// and the prefixes a fractional work factor sweeps — and holds every
// listed row to the reference iteration's bits, every unlisted row of
// next to the sentinel it held before, and data to what it was.
func checkSweepIdx(t *testing.T, c sweepCase, cov *sweepCoverage) {
	t.Helper()
	nLocal := len(c.xadj) - 1
	const sentinel = -12345.678
	before := append([]float64(nil), c.data...)
	for _, k := range builtinKernels {
		want := referenceUpdate(k.k, c.data, c.xadj, c.adj)
		for _, list := range [][]int32{c.idx, byDegree(c.xadj, c.idx)} {
			rows := chunkedRows(c.xadj, c.adj, list)
			for i, lanes := range rows.Interleaved {
				switch {
				case (i+1)*sched.ChunkRows > len(list):
					cov.tail++
				case lanes:
					cov.interleaved++
				default:
					cov.rowAfterRow++
				}
			}
			for _, share := range []float64{1, 0.9, 0.75, 0.5, 0.25} {
				rows.Idx = list[:int(share*float64(len(list)))]
				if cut := len(rows.Idx) / sched.ChunkRows; len(rows.Idx)%sched.ChunkRows != 0 && len(rows.Idx) < len(list) {
					if rows.Interleaved[cut] {
						cov.cutInterleaved++
					} else {
						cov.cutRowAfterRow++
					}
				}
				got := make([]float64, nLocal)
				for u := range got {
					got[u] = sentinel
				}
				k.k.UpdateRows(c.data, rows, got)
				listed := make([]bool, nLocal)
				for _, u := range rows.Idx {
					listed[u] = true
					if !sameBits(got[u], want[u]) {
						t.Errorf("%s: row %d (degree %d) of list %v (chunk offsets %v, interleaved %v): UpdateRows gave %v (%#x), Sweep and the divide %v (%#x)",
							k.name, u, c.xadj[u+1]-c.xadj[u], rows.Idx, rows.ChunkOff, rows.Interleaved, got[u], math.Float64bits(got[u]), want[u], math.Float64bits(want[u]))
					}
				}
				for u, on := range listed {
					if !on && got[u] != sentinel {
						t.Errorf("%s: unlisted row %d of next was written: %v", k.name, u, got[u])
					}
				}
			}
		}
		for i := range before {
			if math.Float64bits(c.data[i]) != math.Float64bits(before[i]) {
				t.Fatalf("%s: UpdateRows wrote data[%d]", k.name, i)
			}
		}
	}
}

// TestSweepIdxEqualsReference: UpdateRows equals the reference loop
// followed by the old divide bit for bit through both forms of chunk —
// eight interleaved rows at a time and one row after another — on
// uniform chunks, mixed chunks, chunks of empty rows, empty rows inside
// mixed chunks, degree-40 chunks, tail chunks shorter than eight rows,
// every list length up to the case's row count and prefixes that cut an
// interleaved and a row-after-row chunk, with ghost references and
// special payloads in play. The name is the one the check had when the
// method was SweepIdx.
func TestSweepIdxEqualsReference(t *testing.T) {
	repeat := func(n int, degs ...int) []int {
		var out []int
		for len(out) < n {
			out = append(out, degs...)
		}
		return out[:n]
	}
	var cov sweepCoverage
	for _, tc := range []struct {
		name   string
		degs   []int
		nGhost int
	}{
		{"one degree", repeat(36, 5), 4},
		{"degree zero only", repeat(20, 0), 0},
		{"degree zero among others", repeat(30, 0, 3, 0, 0, 7), 3},
		{"degree zero groups and tails", repeat(30, 0, 0, 0, 0, 2, 2, 2), 1},
		{"benchmark mesh degrees", repeat(40, 4, 8), 6},
		{"every group mixed", repeat(24, 4, 4, 4, 5), 2},
		{"degree forty", repeat(21, 40, 40, 40, 40, 40, 40, 1), 9},
		{"no ghosts", repeat(20, 3), 0},
		{"single row", []int{6}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for listLen := 0; listLen <= len(tc.degs); listLen++ {
				for seed := int64(1); seed <= 20; seed++ {
					checkSweepIdx(t, newSweepCase(rand.New(rand.NewSource(seed)), tc.degs, tc.nGhost, listLen), &cov)
				}
			}
		})
	}
	if cov.interleaved == 0 || cov.rowAfterRow == 0 || cov.tail == 0 || cov.cutInterleaved == 0 || cov.cutRowAfterRow == 0 {
		t.Errorf("the cases ran %+v, want every kind", cov)
	}
}

// FuzzSweepIdx holds UpdateRows to the reference loop and the old divide
// on arbitrary localized CSRs: degs gives each row's degree (mod 41),
// seed the references, the payload and the list, which is checked as
// drawn and grouped by degree, through its chunk table. testdata/fuzz
// holds the shapes the fused divide added — whole groups of empty rows,
// empty rows inside mixed groups and in the tail, lists whose prefixes
// cut a group — the ones the interleaved chunks added — degree-40
// chunks, a mixed chunk between uniform ones, a chunk of empty rows and
// prefixes that cut a chunk — and the ones the row-after-row chunks
// added: mixed degrees, empty rows inside a mixed chunk, a tail chunk,
// and prefixes that cut an interleaved and a row-after-row chunk. The
// name is the one the target had when the method was SweepIdx.
func FuzzSweepIdx(f *testing.F) {
	f.Add(int64(1), []byte{4, 8, 4, 8, 4, 8, 4, 8, 4}, uint8(3), uint8(9))
	f.Add(int64(2), []byte{0, 0, 0, 0, 40, 40, 40, 40}, uint8(0), uint8(8))
	f.Add(int64(3), []byte{1}, uint8(1), uint8(1))
	f.Add(int64(4), []byte{7, 7, 7, 6, 7, 7, 7, 7, 2, 2}, uint8(5), uint8(7))
	f.Add(int64(5), []byte{4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8, 4, 8}, uint8(6), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, degs []byte, nGhost, listLen uint8) {
		if len(degs) == 0 || len(degs) > 64 {
			t.Skip()
		}
		d := make([]int, len(degs))
		for i, b := range degs {
			d[i] = int(b) % 41
		}
		checkSweepIdx(t, newSweepCase(rand.New(rand.NewSource(seed)), d, int(nGhost%16), int(listLen)), &sweepCoverage{})
	})
}

// rankShape is one rank's view of a benchmark workload: its localized
// CSR, the plan's rows and a data vector with the ghost section.
type rankShape struct {
	xadj, adj          []int32
	interior, boundary sched.Rows
	data               []float64
}

// benchShape builds rank 0's shape of the benchmark's perturbed
// triangulated side x side grid cut p ways under RCB — kernel-p2 is
// (300, 2), scale-p64 is (150, 64).
func benchShape(tb testing.TB, side, p int) rankShape {
	tb.Helper()
	g, err := mesh.GridTriangulated(side, side, 0.2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	world := openWorld(tb, p)
	var sh rankShape
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := core.New(c, g, core.Config{Order: order.RCB})
		if err != nil || c.Rank() != 0 {
			return err
		}
		sh.xadj, sh.adj = rt.LocalAdj()
		sh.interior, sh.boundary = rt.Plan().InteriorRows(), rt.Plan().BoundaryRows()
		v := rt.NewVector()
		v.SetByGlobal(func(g int64) float64 { return float64(g%97) + 1 })
		sh.data = v.Data
		for i := rt.LocalN(); i < len(sh.data); i++ {
			sh.data[i] = float64(i%89) + 1
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sh
}

// BenchmarkKernel times one full sweep of a rank's rows by each
// built-in kernel in its two forms — the contiguous reference loop
// (sums only, no divide) and UpdateRows over the plan's interior and
// boundary rows, which is what the solver runs — and reports the cost
// per adjacency entry and the share of entries the plan's chunk tables
// hold interleaved.
func BenchmarkKernel(b *testing.B) {
	shapes := []struct {
		name    string
		side, p int
	}{{"kernel-p2", 300, 2}, {"scale-p64", 150, 64}}
	// Built on first use, once: the timer restarts a sub-benchmark
	// several times.
	built := map[string]rankShape{}
	for _, kern := range builtinKernels {
		for _, form := range []string{"reference", "plan"} {
			for _, shape := range shapes {
				b.Run(kern.name+"/"+form+"/"+shape.name, func(b *testing.B) {
					sh, ok := built[shape.name]
					if !ok {
						sh = benchShape(b, shape.side, shape.p)
						built[shape.name] = sh
					}
					nLocal := len(sh.xadj) - 1
					tv := make([]float64, nLocal)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if form == "reference" {
							kern.k.Sweep(sh.data, sh.xadj, sh.adj, tv, 0, nLocal)
						} else {
							kern.k.UpdateRows(sh.data, sh.interior, tv)
							kern.k.UpdateRows(sh.data, sh.boundary, tv)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(sh.adj)), "ns/entry")
					if form == "plan" {
						lanes := 0
						for _, r := range []sched.Rows{sh.interior, sh.boundary} {
							for c, on := range r.Interleaved {
								if on {
									lanes += int(r.ChunkOff[c+1] - r.ChunkOff[c])
								}
							}
						}
						b.ReportMetric(100*float64(lanes)/float64(len(sh.adj)), "%interleaved")
					}
				})
			}
		}
	}
}
