package solver

import (
	"fmt"
	"sort"
	"strings"
)

// Kernel is the compute body of one solver iteration: it sweeps local
// elements, reading the solution vector through the localized CSR
// (references >= LocalN index the ghost section) and writing each
// element's neighbor aggregate into tv. The solver owns everything
// around the sweep — the ghost exchange, the work amplification, the
// final divide-by-degree — so a kernel is pure computation and two
// kernels computing the same aggregate are interchangeable bit for
// bit.
type Kernel interface {
	// Sweep computes tv[u] for every local element u in [lo, hi), in
	// ascending order.
	Sweep(data []float64, xadj, adj []int32, tv []float64, lo, hi int)
	// SweepIdx computes tv[u] for each u in idx, in idx order. This is
	// the boundary split executor depths >= 1 run on: the solver sweeps
	// the plan's interior elements while Exchange messages are in flight
	// and the boundary elements after the handle's Wait.
	SweepIdx(data []float64, xadj, adj []int32, tv []float64, idx []int32)
}

// Figure8 is the paper's Figure 8 kernel — each element sums its
// neighbors' values. It is the solver's default kernel.
type Figure8 struct{}

// Sweep sums each element's neighbors over the contiguous range.
func (Figure8) Sweep(data []float64, xadj, adj []int32, tv []float64, lo, hi int) {
	for u := lo; u < hi; u++ {
		sum := 0.0
		for k := xadj[u]; k < xadj[u+1]; k++ {
			sum += data[adj[k]]
		}
		tv[u] = sum
	}
}

// SweepIdx sums each listed element's neighbors.
func (Figure8) SweepIdx(data []float64, xadj, adj []int32, tv []float64, idx []int32) {
	for _, u := range idx {
		sum := 0.0
		for k := xadj[u]; k < xadj[u+1]; k++ {
			sum += data[adj[k]]
		}
		tv[u] = sum
	}
}

// CG is a sparse conjugate-gradient-style smoothing kernel: each
// element combines its own value with its neighbor sum, weighting the
// diagonal by the element's degree. After the solver's
// divide-by-degree this yields y' = (x + avg(neighbors)) / 2 — a
// damped Jacobi relaxation step, the smoother at the heart of a CG
// preconditioner — which contracts smoothly instead of Figure8's pure
// neighbor averaging.
type CG struct{}

// Sweep computes the degree-weighted aggregate over the contiguous
// range.
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

// SweepIdx computes the degree-weighted aggregate for each listed
// element.
func (CG) SweepIdx(data []float64, xadj, adj []int32, tv []float64, idx []int32) {
	for _, u := range idx {
		sum := 0.0
		for k := xadj[u]; k < xadj[u+1]; k++ {
			sum += data[adj[k]]
		}
		deg := float64(xadj[u+1] - xadj[u])
		tv[u] = 0.5 * (deg*data[u] + sum)
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
