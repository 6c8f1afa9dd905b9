package main

import (
	"fmt"
	"math"
	"time"

	"stance/internal/graph"
	"stance/internal/order"
)

// oracle is the plain single-threaded run of the Figure 8 loop on the
// RCB-transformed graph: the correctness reference every workload's
// result is compared with bit for bit, and the baseline the parallel
// timings are reported against.
type oracle struct {
	// tg is the RCB-transformed graph the loop runs on.
	tg *graph.Graph
	// byVertex is the solution after iters iterations, in original
	// vertex numbering.
	byVertex []float64
	iters    int
	// perIter is the reference loop's own time per iteration.
	perIter time.Duration
	// orderTime and permuteTime are what the two Phase A steps cost
	// once, sequentially.
	orderTime, permuteTime time.Duration
}

// newOracle runs the reference for iters iterations. The loop repeats
// the solver's arithmetic in the solver's order — neighbour sum in CSR
// order of the transformed graph, then divide by degree — without
// calling it.
func newOracle(g *graph.Graph, iters int) (*oracle, error) {
	t0 := time.Now()
	perm, err := order.RCB(g)
	if err != nil {
		return nil, fmt.Errorf("reference ordering: %w", err)
	}
	orderTime := time.Since(t0)
	t0 = time.Now()
	tg, err := g.Permute(perm)
	if err != nil {
		return nil, fmt.Errorf("reference permute: %w", err)
	}
	permuteTime := time.Since(t0)

	y := make([]float64, tg.N)
	for i := range y {
		y[i] = float64(i%97) + 1
	}
	tv := make([]float64, tg.N)
	t0 = time.Now()
	for it := 0; it < iters; it++ {
		for u := 0; u < tg.N; u++ {
			sum := 0.0
			for _, w := range tg.Neighbors(u) {
				sum += y[w]
			}
			tv[u] = sum
		}
		for u := 0; u < tg.N; u++ {
			if d := tg.Degree(u); d > 0 {
				y[u] = tv[u] / float64(d)
			}
		}
	}
	loop := time.Since(t0)

	o := &oracle{
		tg:          tg,
		byVertex:    make([]float64, g.N),
		iters:       iters,
		orderTime:   orderTime,
		permuteTime: permuteTime,
	}
	if iters > 0 {
		o.perIter = loop / time.Duration(iters)
	}
	for v, t := range perm {
		o.byVertex[v] = y[t]
	}
	return o, nil
}

// check compares a gathered result with the reference by bit pattern.
func (o *oracle) check(got []float64) error {
	if len(got) != len(o.byVertex) {
		return fmt.Errorf("result has %d values, reference has %d", len(got), len(o.byVertex))
	}
	for v, want := range o.byVertex {
		if math.Float64bits(got[v]) != math.Float64bits(want) {
			return fmt.Errorf("vertex %d after %d iterations: got %v, reference %v", v, o.iters, got[v], want)
		}
	}
	return nil
}
