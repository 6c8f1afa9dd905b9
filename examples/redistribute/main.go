// Redistribute walks through the paper's Figure 5 example and the
// MinimizeCostRedistribution heuristic (Section 3.4): 100 elements on
// five workstations whose capabilities adapt, and the arrangements
// that keep the most data in place.
//
//	go run ./examples/redistribute
package main

import (
	"fmt"
	"log"

	"stance/internal/partition"
	"stance/internal/redist"
)

func describe(label string, old, new *partition.Layout) {
	ov, err := partition.Overlap(old, new)
	if err != nil {
		log.Fatal(err)
	}
	msgs, err := partition.Messages(old, new)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s arrangement %v\n", label, new.Arrangement())
	for proc := 0; proc < new.P(); proc++ {
		iv := new.Interval(proc)
		fmt.Printf("    P%d: [%3d,%3d)\n", proc, iv.Lo, iv.Hi)
	}
	fmt.Printf("    overlap %d/100 elements stay put, %d moved, %d messages\n\n",
		ov, 100-ov, msgs)
}

func main() {
	log.SetFlags(0)

	// The paper's Figure 5: capabilities 0.27/0.18/0.34/0.07/0.14
	// adapt to 0.10/0.13/0.29/0.24/0.24.
	oldW := []float64{0.27, 0.18, 0.34, 0.07, 0.14}
	newW := []float64{0.10, 0.13, 0.29, 0.24, 0.24}
	old, err := partition.NewBlock(100, oldW)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("old layout (capabilities 0.27/0.18/0.34/0.07/0.14):")
	for proc := 0; proc < old.P(); proc++ {
		iv := old.Interval(proc)
		fmt.Printf("    P%d: [%3d,%3d)\n", proc, iv.Lo, iv.Hi)
	}
	fmt.Println("\ncapabilities adapt to 0.10/0.13/0.29/0.24/0.24; options:")
	fmt.Println()

	identity, err := partition.NewBlock(100, newW)
	if err != nil {
		log.Fatal(err)
	}
	describe("keep the arrangement:", old, identity)

	paperPick, err := partition.New(100, newW, []int{0, 3, 1, 2, 4})
	if err != nil {
		log.Fatal(err)
	}
	describe("the paper's (P0,P3,P1,P2,P4):", old, paperPick)

	single, err := redist.MinimizeCostRedistribution(old, newW, redist.OverlapCost)
	if err != nil {
		log.Fatal(err)
	}
	describe("MCR, one greedy sweep:", old, single)

	iterated, err := redist.Iterated(old, newW, redist.OverlapCost)
	if err != nil {
		log.Fatal(err)
	}
	describe("MCR iterated to convergence:", old, iterated)

	best, err := redist.BruteForce(old, newW, redist.OverlapCost)
	if err != nil {
		log.Fatal(err)
	}
	describe("brute force over all 5!:", old, best)

	msgAware, err := redist.Iterated(old, newW, redist.OverlapMessagesCost(2))
	if err != nil {
		log.Fatal(err)
	}
	describe("message-aware cost (2 el/msg):", old, msgAware)
}
