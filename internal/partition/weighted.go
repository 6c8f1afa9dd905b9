package partition

import (
	"fmt"
	"sort"
)

// The paper partitions "nodes with computational weight proportional
// to the computational capabilities of that processor". When vertices
// cost unequal work (e.g. work proportional to degree), the cut points
// must balance total weight, not counts. WeightedSizes computes those
// cut points on the one-dimensional list.

// WeightedSizes splits len(itemWeights) items, in list order, into
// contiguous blocks whose total item weight is proportional to
// procWeights. Both kinds of weight must be finite and non-negative
// with a positive, finite sum; blocks can balance weight only to the
// granularity of single items.
func WeightedSizes(itemWeights, procWeights []float64) ([]int64, error) {
	n := len(itemWeights)
	p := len(procWeights)
	if p == 0 {
		return nil, fmt.Errorf("partition: no processor weights")
	}
	var totalProc float64
	for i, w := range procWeights {
		if badWeight(w) {
			return nil, fmt.Errorf("partition: processor weight %g at %d, want finite and non-negative", w, i)
		}
		totalProc += w
	}
	if !(totalProc > 0) || badWeight(totalProc) {
		return nil, fmt.Errorf("partition: processor weights sum to %g, want positive and finite", totalProc)
	}
	prefix := make([]float64, n+1)
	for i, w := range itemWeights {
		if badWeight(w) {
			return nil, fmt.Errorf("partition: item weight %g at %d, want finite and non-negative", w, i)
		}
		prefix[i+1] = prefix[i] + w
	}
	totalItem := prefix[n]
	if (totalItem <= 0 && n > 0) || badWeight(totalItem) {
		return nil, fmt.Errorf("partition: item weights sum to %g, want positive and finite", totalItem)
	}
	sizes := make([]int64, p)
	cumProc := 0.0
	prevCut := 0
	for proc := 0; proc < p; proc++ {
		cumProc += procWeights[proc]
		target := totalItem * cumProc / totalProc
		// The cut point: the smallest index whose prefix weight
		// reaches the cumulative target (the final block always ends
		// at n).
		cut := n
		if proc < p-1 {
			cut = sort.Search(n+1, func(i int) bool { return prefix[i] >= target })
			if cut < prevCut {
				cut = prevCut
			}
		}
		sizes[proc] = int64(cut - prevCut)
		prevCut = cut
	}
	return sizes, nil
}

// NewWeighted builds a layout whose blocks balance the item weights
// in proportion to the processor weights, under the given arrangement.
// Block sizes are assigned by the order processors appear in the
// arrangement (position k's block covers the k-th weighted span).
func NewWeighted(itemWeights, procWeights []float64, arrangement []int) (*Layout, error) {
	if len(arrangement) != len(procWeights) {
		return nil, fmt.Errorf("partition: arrangement length %d, want %d", len(arrangement), len(procWeights))
	}
	// The k-th positional span must reflect the weight of the
	// processor stationed there.
	posWeights := make([]float64, len(procWeights))
	for pos, proc := range arrangement {
		if proc < 0 || proc >= len(procWeights) {
			return nil, fmt.Errorf("partition: arrangement[%d] = %d out of range", pos, proc)
		}
		posWeights[pos] = procWeights[proc]
	}
	posSizes, err := WeightedSizes(itemWeights, posWeights)
	if err != nil {
		return nil, err
	}
	// fromSizes expects sizes indexed by processor id.
	sizes := make([]int64, len(procWeights))
	for pos, proc := range arrangement {
		sizes[proc] = posSizes[pos]
	}
	return fromSizes(int64(len(itemWeights)), sizes, arrangement)
}

// BlockWeight returns the total item weight inside proc's interval.
func (l *Layout) BlockWeight(itemWeights []float64, proc int) (float64, error) {
	if int64(len(itemWeights)) != l.n {
		return 0, fmt.Errorf("partition: %d item weights for %d elements", len(itemWeights), l.n)
	}
	iv := l.Interval(proc)
	sum := 0.0
	for g := iv.Lo; g < iv.Hi; g++ {
		sum += itemWeights[g]
	}
	return sum, nil
}
