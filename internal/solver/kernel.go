package solver

import (
	"fmt"
	"sort"
	"strings"

	"stance/internal/sched"
)

// Kernel is the compute body of one solver iteration: it sweeps local
// elements, reading the solution vector through the plan's chunk tables
// (references >= LocalN index the ghost section) and writing each
// element's new value into next. The solver owns everything around the
// sweep — the ghost exchange, the work amplification, moving next into
// the vector once every row is in — so a kernel is pure computation and
// two kernels computing the same update are interchangeable bit for
// bit.
type Kernel interface {
	// UpdateRows computes next[u], the value element u takes at the end
	// of the iteration, for each u in rows.Idx and writes no other
	// element of next and none of data; a row without neighbors keeps
	// data[u]. The solver hands it the plan's interior rows (while
	// Exchange messages are in flight at depths >= 1) and boundary rows
	// (once every ghost has landed), or a non-empty prefix of one, in the
	// plan's order — grouped by degree inside fixed windows — with no
	// duplicates: next[u] may depend on data and row u's references only,
	// which the chunk table holds (see sched.Rows). The solver does not
	// post-process next: any divide is the kernel's. Under virtual
	// compute the call runs inside a vtime.Charge, concurrently with
	// other ranks' code on a simulated clock, so it must not read the
	// clock, communicate or touch state another rank can see.
	UpdateRows(data []float64, rows sched.Rows, next []float64)
}

// sumRows writes next[u] = Σ data[ref] over row u's references for each
// listed row — divided by the row's degree when mean is set, where a
// row without references keeps data[u]. An interleaved chunk is one
// stream of references feeding eight accumulators: eight floating-point
// chains in flight, one exit branch and one divisor for eight rows. Each
// accumulator starts from +0.0 and adds its row's references in order,
// so every next[u] is bit-identical to the row loop, which serves the
// other chunks and a prefix's last, cut chunk.
func sumRows(data []float64, r sched.Rows, next []float64, mean bool) {
	whole := len(r.Idx) / sched.ChunkRows
	for c, lanes := range r.Interleaved[:whole] {
		refs := r.ChunkAdj[r.ChunkOff[c]:r.ChunkOff[c+1]]
		u := (*[sched.ChunkRows]int32)(r.Idx[c*sched.ChunkRows:])
		if !lanes {
			sumRowsPlain(data, r.Xadj, refs, false, next, u[:], mean)
			continue
		}
		// Spent before the loop on a float divisor (x/1 is x, bit for
		// bit): tested after it, the flag costs the loop a register.
		div := 1.0
		if mean {
			div = float64(len(refs) / sched.ChunkRows)
		}
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for ; len(refs) >= sched.ChunkRows; refs = refs[sched.ChunkRows:] {
			k := (*[sched.ChunkRows]int32)(refs)
			s0 += data[k[0]]
			s1 += data[k[1]]
			s2 += data[k[2]]
			s3 += data[k[3]]
			s4 += data[k[4]]
			s5 += data[k[5]]
			s6 += data[k[6]]
			s7 += data[k[7]]
		}
		next[u[0]], next[u[1]], next[u[2]], next[u[3]] = s0/div, s1/div, s2/div, s3/div
		next[u[4]], next[u[5]], next[u[6]], next[u[7]] = s4/div, s5/div, s6/div, s7/div
	}
	if rest := r.Idx[whole*sched.ChunkRows:]; len(rest) > 0 {
		refs := r.ChunkAdj[r.ChunkOff[whole]:r.ChunkOff[whole+1]]
		sumRowsPlain(data, r.Xadj, refs, r.Interleaved[whole], next, rest, mean)
	}
}

// sumRowsPlain is sumRows one row at a time over the first rows of one
// chunk, whose references are refs: one row after another, or, with
// lanes set, interleaved — row j's are refs[j], refs[j+8], ….
func sumRowsPlain(data []float64, xadj, refs []int32, lanes bool, next []float64, idx []int32, mean bool) {
	at := 0
	for j, u := range idx {
		d := int(xadj[u+1] - xadj[u])
		sum := 0.0
		if lanes {
			for k := j; k < len(refs); k += sched.ChunkRows {
				sum += data[refs[k]]
			}
		} else {
			for _, ref := range refs[at : at+d] {
				sum += data[ref]
			}
			at += d
		}
		if mean {
			if d > 0 {
				sum /= float64(d)
			} else {
				sum = data[u]
			}
		}
		next[u] = sum
	}
}

// Figure8 is the paper's Figure 8 kernel — each element becomes the
// average of its neighbors' values. It is the solver's default kernel.
type Figure8 struct{}

// UpdateRows averages each listed element's neighbors.
func (Figure8) UpdateRows(data []float64, rows sched.Rows, next []float64) {
	sumRows(data, rows, next, true)
}

// Sweep is the paper's loop as written: the neighbor sums tv[u] of the
// contiguous range [lo, hi), one row at a time, before the divide. The
// solver does not call it; it is the oracle the kernel tests compare
// UpdateRows against, and the benchmark module compiles against this
// name and may not change in the same PR as the code it measures.
func (Figure8) Sweep(data []float64, xadj, adj []int32, tv []float64, lo, hi int) {
	for u := lo; u < hi; u++ {
		sum := 0.0
		for k := xadj[u]; k < xadj[u+1]; k++ {
			sum += data[adj[k]]
		}
		tv[u] = sum
	}
}

// CG is a sparse conjugate-gradient-style smoothing kernel: each
// element combines its own value with its neighbor sum, weighting the
// diagonal by the element's degree, and divides by the degree:
// y' = (x + avg(neighbors)) / 2 — a damped Jacobi relaxation step, the
// smoother at the heart of a CG preconditioner — which contracts
// smoothly instead of Figure8's pure neighbor averaging.
type CG struct{}

// UpdateRows relaxes each listed element: the neighbor sums, then the
// diagonal term and the divide in a second pass over the same rows.
func (CG) UpdateRows(data []float64, rows sched.Rows, next []float64) {
	sumRows(data, rows, next, false)
	for _, u := range rows.Idx {
		if d := rows.Xadj[u+1] - rows.Xadj[u]; d > 0 {
			deg := float64(d)
			next[u] = 0.5 * (deg*data[u] + next[u]) / deg
		} else {
			next[u] = data[u]
		}
	}
}

// kernelRegistry names the built-in kernels for CLI selection.
var kernelRegistry = map[string]func() Kernel{
	"figure8": func() Kernel { return Figure8{} },
	"cg":      func() Kernel { return CG{} },
}

// KernelByName returns a built-in kernel by registry name.
func KernelByName(name string) (Kernel, error) {
	f, ok := kernelRegistry[name]
	if !ok {
		return nil, fmt.Errorf("solver: unknown kernel %q (want %s)", name, KernelNames())
	}
	return f(), nil
}

// KernelNames lists the built-in kernel names, sorted.
func KernelNames() string {
	names := make([]string, 0, len(kernelRegistry))
	for n := range kernelRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
