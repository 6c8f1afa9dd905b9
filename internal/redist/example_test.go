package redist_test

import (
	"fmt"

	"stance/internal/partition"
	"stance/internal/redist"
)

// Move is the paper's Figure 7 primitive, shown on its own example:
// MOVE({1,3,5,4,6}, 5, 0) = {5,1,3,4,6}.
func ExampleMove() {
	list := []int{1, 3, 5, 4, 6}
	redist.Move(list, 5, 0)
	fmt.Println(list)
	// Output:
	// [5 1 3 4 6]
}

// MinimizeCostRedistribution searches arrangements greedily; Iterated
// repeats the sweep with swap refinement and finds the Figure 5
// optimum.
func ExampleIterated() {
	old, _ := partition.NewBlock(100, []float64{0.27, 0.18, 0.34, 0.07, 0.14})
	newW := []float64{0.10, 0.13, 0.29, 0.24, 0.24}

	best, _ := redist.Iterated(old, newW, redist.OverlapCost)
	ov, _ := partition.Overlap(old, best)
	moved, _ := partition.Moved(old, best)
	fmt.Printf("kept %d, moved %d\n", ov, moved)
	// Output:
	// kept 64, moved 36
}

// NewPlan turns two layouts into one processor's transfer list.
func ExampleNewPlan() {
	old, _ := partition.NewBlock(12, []float64{1, 1})
	wide, _ := partition.NewBlock(12, []float64{3, 1})
	plan, _ := redist.NewPlan(old, wide, 0)
	fmt.Printf("old %v new %v keep %v\n", plan.Old, plan.New, plan.Keep)
	for _, r := range plan.Recvs {
		fmt.Printf("receive %v from processor %d\n", r.Global, r.Peer)
	}
	// Output:
	// old {0 6} new {0 9} keep {0 6}
	// receive {6 9} from processor 1
}
