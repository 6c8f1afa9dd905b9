// Package redist implements the data-redistribution machinery of
// paper Section 3.4: the MinimizeCostRedistribution (MCR) greedy
// search over processor arrangements (Figure 6), its MOVE primitive
// (Figure 7), a brute-force optimal baseline, and the transfer plans
// that actually move data between an old and a new layout.
package redist

import (
	"fmt"

	"stance/internal/partition"
)

// CostFunc scores a candidate new layout against the old layout;
// higher is better. MCR maximizes it.
type CostFunc func(old, candidate *partition.Layout) float64

// OverlapCost scores by the number of elements that stay put —
// maximizing overlap minimizes the volume of data moved.
func OverlapCost(old, cand *partition.Layout) float64 {
	ov, err := partition.Overlap(old, cand)
	if err != nil {
		return -1
	}
	return float64(ov)
}

// OverlapMessagesCost combines data overlap with the message count,
// the paper's "number of messages generated can also be taken into
// account by incorporating it into the cost". Each message is charged
// msgPenalty elements.
func OverlapMessagesCost(msgPenalty float64) CostFunc {
	return func(old, cand *partition.Layout) float64 {
		ov, err := partition.Overlap(old, cand)
		if err != nil {
			return -1
		}
		msgs, err := partition.Messages(old, cand)
		if err != nil {
			return -1
		}
		return float64(ov) - msgPenalty*float64(msgs)
	}
}

// Move relocates element c of list to index l, shifting the elements
// in between (paper Figure 7). For example
// Move([1,3,5,4,6], 5, 0) yields [5,1,3,4,6]. It panics if c is not in
// list or l is out of range, mirroring the paper's precondition.
func Move(list []int, c, l int) {
	if l < 0 || l >= len(list) {
		panic(fmt.Sprintf("redist: Move target %d out of range [0,%d)", l, len(list)))
	}
	x := -1
	for i, v := range list {
		if v == c {
			x = i
			break
		}
	}
	if x < 0 {
		panic(fmt.Sprintf("redist: Move element %d not in list", c))
	}
	switch {
	case x < l:
		copy(list[x:], list[x+1:l+1])
	case x > l:
		copy(list[l+1:x+1], list[l:x])
	}
	list[l] = c
}

// MinimizeCostRedistribution implements the paper's MCR greedy
// algorithm (Figure 6): starting from the old arrangement, it
// considers each processor in old-arrangement order and moves it to
// the position that maximizes cost, given the placements made so far.
// The returned layout distributes n elements by newWeights using the
// chosen arrangement.
//
// The search evaluates O(p^2) candidate placements, each costing O(p),
// for the paper's O(p^3) total. A single greedy sweep can stop short
// of the best reachable arrangement (it finds overlap 53 on the
// paper's own Figure 5 instance, whose optimum is 64); Iterated runs
// sweeps to convergence.
func MinimizeCostRedistribution(old *partition.Layout, newWeights []float64, cost CostFunc) (*partition.Layout, error) {
	build, err := countBuilder(old, newWeights)
	if err != nil {
		return nil, err
	}
	return mcrRun(old, build, cost, 1)
}

// Iterated is the arrangement search core.Runtime.ChooseLayout runs. It
// strengthens the paper's single MCR sweep into a local search: it
// alternates greedy Move sweeps (the Figure 6 step) with pairwise-swap
// refinement until the cost stops improving, for at most p rounds. Each
// round costs the same O(p^3) as one MCR sweep. The swap neighborhood
// matters: Move-only hill climbing gets stuck exactly one transposition
// away from the optimum on easily-constructed instances — including the
// paper's own Figure 5 example, where the single sweep reaches overlap
// 53 against an optimum of 64.
func Iterated(old *partition.Layout, newWeights []float64, cost CostFunc) (*partition.Layout, error) {
	build, err := countBuilder(old, newWeights)
	if err != nil {
		return nil, err
	}
	return mcrRun(old, build, cost, old.P())
}

// IteratedWeighted is Iterated over weighted layouts: candidate
// arrangements re-cut the list so each processor's block carries item
// weight proportional to its capability (block sizes depend on the
// position along the list, not just the processor).
func IteratedWeighted(old *partition.Layout, itemWeights, newProcWeights []float64, cost CostFunc) (*partition.Layout, error) {
	build, err := weightedBuilder(old, itemWeights, newProcWeights)
	if err != nil {
		return nil, err
	}
	return mcrRun(old, build, cost, old.P())
}

// layoutBuilder materializes a candidate layout for an arrangement.
type layoutBuilder func(arrangement []int) (*partition.Layout, error)

// countBuilder cuts by element counts: block sizes depend only on the
// processor, so they are computed once.
func countBuilder(old *partition.Layout, newWeights []float64) (layoutBuilder, error) {
	if len(newWeights) != old.P() {
		return nil, fmt.Errorf("redist: %d new weights for %d processors", len(newWeights), old.P())
	}
	sizes, err := partition.SizesFromWeights(old.N(), newWeights)
	if err != nil {
		return nil, err
	}
	return func(arr []int) (*partition.Layout, error) {
		return partition.NewFromSizes(sizes, arr)
	}, nil
}

// weightedBuilder cuts by item weights: every arrangement re-cuts the
// list, since the weight profile along the list determines each
// block's extent.
func weightedBuilder(old *partition.Layout, itemWeights, newProcWeights []float64) (layoutBuilder, error) {
	if len(newProcWeights) != old.P() {
		return nil, fmt.Errorf("redist: %d new weights for %d processors", len(newProcWeights), old.P())
	}
	if int64(len(itemWeights)) != old.N() {
		return nil, fmt.Errorf("redist: %d item weights for %d elements", len(itemWeights), old.N())
	}
	return func(arr []int) (*partition.Layout, error) {
		return partition.NewWeighted(itemWeights, newProcWeights, arr)
	}, nil
}

// mcrRun executes the greedy search: maxPasses rounds of a Figure 6
// sweep, each followed (for multi-pass searches) by pairwise-swap
// refinement.
func mcrRun(old *partition.Layout, build layoutBuilder, cost CostFunc, maxPasses int) (*partition.Layout, error) {
	if cost == nil {
		cost = OverlapCost
	}
	list := old.Arrangement()
	out := old.Arrangement() // LIST_OUT starts as a copy of LIST
	eval := func(arr []int) (float64, error) {
		cand, err := build(arr)
		if err != nil {
			return 0, err
		}
		return cost(old, cand), nil
	}
	if maxPasses == 1 {
		if _, err := mcrSweep(list, out, eval); err != nil {
			return nil, err
		}
		return build(out)
	}
	prev, err := eval(out)
	if err != nil {
		return nil, err
	}
	for pass := 0; pass < maxPasses; pass++ {
		c, err := mcrSweep(list, out, eval)
		if err != nil {
			return nil, err
		}
		c, err = swapSweep(out, c, eval)
		if err != nil {
			return nil, err
		}
		if c <= prev {
			break
		}
		prev = c
	}
	return build(out)
}

// swapSweep greedily applies the best pairwise position swap while it
// improves the cost, starting from current cost cur.
func swapSweep(out []int, cur float64, eval func([]int) (float64, error)) (float64, error) {
	p := len(out)
	for {
		bestI, bestJ, best := -1, -1, cur
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				out[i], out[j] = out[j], out[i]
				c, err := eval(out)
				out[i], out[j] = out[j], out[i]
				if err != nil {
					return 0, err
				}
				if c > best {
					bestI, bestJ, best = i, j, c
				}
			}
		}
		if bestI < 0 {
			return cur, nil
		}
		out[bestI], out[bestJ] = out[bestJ], out[bestI]
		cur = best
	}
}

// mcrSweep performs one greedy pass, mutating out in place, and
// returns the cost of the final arrangement.
func mcrSweep(list, out []int, eval func([]int) (float64, error)) (float64, error) {
	p := len(list)
	last := 0.0
	for i := 0; i < p; i++ {
		// The paper's pseudocode shares max/jmax across iterations of
		// i, which would reuse a stale jmax; we reset them per element,
		// the evidently intended greedy step.
		best := -1.0
		bestJ := -1
		for j := 0; j < p; j++ {
			Move(out, list[i], j)
			c, err := eval(out)
			if err != nil {
				return 0, err
			}
			if c > best {
				best, bestJ = c, j
			}
		}
		Move(out, list[i], bestJ)
		last = best
	}
	return last, nil
}

// BruteForce finds the arrangement that maximizes cost by enumerating
// all p! arrangements. It is the optimal baseline MCR is compared
// against; p is limited to keep the search tractable.
func BruteForce(old *partition.Layout, newWeights []float64, cost CostFunc) (*partition.Layout, error) {
	p := old.P()
	if p > 9 {
		return nil, fmt.Errorf("redist: brute force limited to p <= 9, got %d", p)
	}
	if len(newWeights) != p {
		return nil, fmt.Errorf("redist: %d new weights for %d processors", len(newWeights), p)
	}
	if cost == nil {
		cost = OverlapCost
	}
	sizes, err := partition.SizesFromWeights(old.N(), newWeights)
	if err != nil {
		return nil, err
	}
	arr := make([]int, p)
	for i := range arr {
		arr[i] = i
	}
	var best *partition.Layout
	bestCost := 0.0
	var permute func(k int) error
	permute = func(k int) error {
		if k == p {
			cand, err := partition.NewFromSizes(sizes, arr)
			if err != nil {
				return err
			}
			if c := cost(old, cand); best == nil || c > bestCost {
				best, bestCost = cand, c
			}
			return nil
		}
		for i := k; i < p; i++ {
			arr[k], arr[i] = arr[i], arr[k]
			if err := permute(k + 1); err != nil {
				return err
			}
			arr[k], arr[i] = arr[i], arr[k]
		}
		return nil
	}
	if err := permute(0); err != nil {
		return nil, err
	}
	return best, nil
}
