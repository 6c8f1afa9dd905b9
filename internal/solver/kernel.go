package solver

import (
	"fmt"
	"sort"
	"strings"
)

// Kernel is the compute body of one solver iteration: it sweeps local
// elements, reading the solution vector through the localized CSR
// (references >= LocalN index the ghost section) and writing each
// element's new value into next. The solver owns everything around the
// sweep — the ghost exchange, the work amplification, moving next into
// the vector once every row is in — so a kernel is pure computation and
// two kernels computing the same update are interchangeable bit for
// bit.
type Kernel interface {
	// UpdateIdx computes next[u], the value element u takes at the end
	// of the iteration, for each u in idx and writes no other element of
	// next and none of data; a row without neighbors keeps data[u]. The
	// solver hands it the plan's interior list (while Exchange messages
	// are in flight at depths >= 1) and boundary list (once every ghost
	// has landed), or a non-empty prefix of one. The rows arrive in the
	// plan's order — grouped by degree inside fixed windows, not
	// ascending — hold no duplicates, and are independent: next[u] may
	// depend on data and the CSR only, never on the order of idx. The
	// solver does not post-process next: any divide is the kernel's.
	UpdateIdx(data []float64, xadj, adj []int32, next []float64, idx []int32)
}

// sumRows writes next[u] = Σ data[adj[k]] over row u's entries for each
// listed row — divided by the row's degree when mean is set, where a
// row without entries keeps data[u]. It takes the rows four at a time:
// when the four have the same degree — the plan's lists are grouped by
// degree, so almost always — one inner loop feeds four independent
// accumulators, which is four floating-point chains in flight instead
// of one and an exit branch that repeats instead of guessing, and one
// divisor serves the four sums. Each accumulator still starts from +0.0
// and adds its row's neighbors in CSR order, so every next[u] is
// bit-identical to the plain row loop, which the mixed groups, the
// empty rows and the tail fall back to.
func sumRows(data []float64, xadj, adj []int32, next []float64, idx []int32, mean bool) {
	for ; len(idx) >= 4; idx = idx[4:] {
		u0, u1, u2, u3 := idx[0], idx[1], idx[2], idx[3]
		k0, k1, k2, k3 := xadj[u0], xadj[u1], xadj[u2], xadj[u3]
		d := xadj[u0+1] - k0
		if d == 0 || xadj[u1+1]-k1 != d || xadj[u2+1]-k2 != d || xadj[u3+1]-k3 != d {
			sumRowsPlain(data, xadj, adj, next, idx[:4], mean)
			continue
		}
		// The flag is spent here, on a divisor in a floating-point
		// register (x/1 is x, bit for bit): tested after the loop it
		// takes a general register and the compiler spills k.
		div := 1.0
		if mean {
			div = float64(d)
		}
		// Equal lengths let the compiler drop the bounds checks on the
		// four reference slices.
		r0 := adj[k0 : k0+d]
		r1 := adj[k1 : k1+d][:len(r0)]
		r2 := adj[k2 : k2+d][:len(r0)]
		r3 := adj[k3 : k3+d][:len(r0)]
		var s0, s1, s2, s3 float64
		for k := range r0 {
			s0 += data[r0[k]]
			s1 += data[r1[k]]
			s2 += data[r2[k]]
			s3 += data[r3[k]]
		}
		next[u0], next[u1], next[u2], next[u3] = s0/div, s1/div, s2/div, s3/div
	}
	sumRowsPlain(data, xadj, adj, next, idx, mean)
}

// sumRowsPlain is sumRows one row at a time.
func sumRowsPlain(data []float64, xadj, adj []int32, next []float64, idx []int32, mean bool) {
	for _, u := range idx {
		sum := 0.0
		for k := xadj[u]; k < xadj[u+1]; k++ {
			sum += data[adj[k]]
		}
		if mean {
			if d := xadj[u+1] - xadj[u]; d > 0 {
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

// UpdateIdx averages each listed element's neighbors.
func (Figure8) UpdateIdx(data []float64, xadj, adj []int32, next []float64, idx []int32) {
	sumRows(data, xadj, adj, next, idx, true)
}

// Sweep is the paper's loop as written: the neighbor sums tv[u] of the
// contiguous range [lo, hi), one row at a time, before the divide. The
// solver does not call it; it is the oracle the kernel tests compare
// UpdateIdx against, and the benchmark module compiles against this
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

// UpdateIdx relaxes each listed element: the neighbor sums, then the
// diagonal term and the divide in a second pass over the same rows.
func (CG) UpdateIdx(data []float64, xadj, adj []int32, next []float64, idx []int32) {
	sumRows(data, xadj, adj, next, idx, false)
	for _, u := range idx {
		if d := xadj[u+1] - xadj[u]; d > 0 {
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
