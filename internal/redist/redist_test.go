package redist

import (
	"math/rand"
	"testing"

	"stance/internal/partition"
)

func TestMoveExamples(t *testing.T) {
	// The paper's own example: MOVE({1,3,5,4,6}, 5, 0) = {5,1,3,4,6}.
	list := []int{1, 3, 5, 4, 6}
	Move(list, 5, 0)
	want := []int{5, 1, 3, 4, 6}
	for i := range want {
		if list[i] != want[i] {
			t.Fatalf("Move = %v, want %v", list, want)
		}
	}
	// Move right.
	list = []int{0, 1, 2, 3}
	Move(list, 0, 2)
	want = []int{1, 2, 0, 3}
	for i := range want {
		if list[i] != want[i] {
			t.Fatalf("Move right = %v, want %v", list, want)
		}
	}
	// Move to same place is a no-op.
	list = []int{0, 1, 2}
	Move(list, 1, 1)
	for i, v := range []int{0, 1, 2} {
		if list[i] != v {
			t.Fatal("no-op Move changed list")
		}
	}
}

func TestMovePreservesPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		p := rng.Intn(8) + 1
		list := rng.Perm(p)
		c := list[rng.Intn(p)]
		l := rng.Intn(p)
		Move(list, c, l)
		if list[l] != c {
			t.Fatalf("element %d not at %d: %v", c, l, list)
		}
		seen := make([]bool, p)
		for _, v := range list {
			if seen[v] {
				t.Fatalf("duplicate after Move: %v", list)
			}
			seen[v] = true
		}
	}
}

func TestMovePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"missing element", func() { Move([]int{0, 1}, 5, 0) }},
		{"bad target", func() { Move([]int{0, 1}, 0, 2) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

// TestMCRFigure5 pins down MCR behaviour on the paper's Figure 5
// instance: a single greedy sweep improves the identity arrangement's
// overlap from 31 to 53; iterating sweeps to convergence reaches the
// optimum 64, matching the paper's hand-picked (P0,P3,P1,P2,P4)
// arrangement.
func TestMCRFigure5(t *testing.T) {
	old, err := partition.NewBlock(100, []float64{0.27, 0.18, 0.34, 0.07, 0.14})
	if err != nil {
		t.Fatal(err)
	}
	newW := []float64{0.10, 0.13, 0.29, 0.24, 0.24}

	single, err := MinimizeCostRedistribution(old, newW, OverlapCost)
	if err != nil {
		t.Fatal(err)
	}
	ovSingle, err := partition.Overlap(old, single)
	if err != nil {
		t.Fatal(err)
	}
	if ovSingle != 53 {
		t.Errorf("single-sweep MCR overlap = %d, want 53", ovSingle)
	}

	iterated, err := Iterated(old, newW, OverlapCost)
	if err != nil {
		t.Fatal(err)
	}
	ovIter, err := partition.Overlap(old, iterated)
	if err != nil {
		t.Fatal(err)
	}
	if ovIter < 64 {
		t.Errorf("iterated MCR overlap = %d, want >= 64 (the paper's arrangement)", ovIter)
	}

	opt, err := BruteForce(old, newW, OverlapCost)
	if err != nil {
		t.Fatal(err)
	}
	ovOpt, _ := partition.Overlap(old, opt)
	if ovOpt != 64 {
		t.Errorf("brute-force overlap = %d, want 64", ovOpt)
	}
	if ovIter > ovOpt {
		t.Errorf("iterated MCR (%d) beat brute force (%d)", ovIter, ovOpt)
	}

	identity, err := partition.NewBlock(100, newW)
	if err != nil {
		t.Fatal(err)
	}
	ovID, _ := partition.Overlap(old, identity)
	if ovID != 31 {
		t.Errorf("identity overlap = %d, want 31", ovID)
	}
	if ovSingle <= ovID {
		t.Errorf("single-sweep MCR (%d) did not beat the identity arrangement (%d)", ovSingle, ovID)
	}
}

func TestMCRNeverWorseThanIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		p := rng.Intn(7) + 2
		n := int64(rng.Intn(900) + 100)
		oldW := randWeights(rng, p)
		newW := randWeights(rng, p)
		old, err := partition.NewBlock(n, oldW)
		if err != nil {
			t.Fatal(err)
		}
		mcr, err := MinimizeCostRedistribution(old, newW, OverlapCost)
		if err != nil {
			t.Fatal(err)
		}
		identity, err := partition.NewBlock(n, newW)
		if err != nil {
			t.Fatal(err)
		}
		ovMCR, _ := partition.Overlap(old, mcr)
		ovID, _ := partition.Overlap(old, identity)
		if ovMCR < ovID {
			t.Fatalf("trial %d: MCR overlap %d worse than identity %d", trial, ovMCR, ovID)
		}
	}
}

func TestMCRNearOptimal(t *testing.T) {
	// The paper claims MCR "produces good suboptimal results". On
	// random small instances the single sweep stays within ~70% of the
	// brute-force optimum and never beats it; iterated sweeps reach at
	// least 90% in the worst case.
	rng := rand.New(rand.NewSource(23))
	worstSingle, worstIter := 1.0, 1.0
	for trial := 0; trial < 60; trial++ {
		p := rng.Intn(4) + 3 // 3..6
		n := int64(rng.Intn(400) + 100)
		old, err := partition.NewBlock(n, randWeights(rng, p))
		if err != nil {
			t.Fatal(err)
		}
		newW := randWeights(rng, p)
		single, err := MinimizeCostRedistribution(old, newW, OverlapCost)
		if err != nil {
			t.Fatal(err)
		}
		iter, err := Iterated(old, newW, OverlapCost)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := BruteForce(old, newW, OverlapCost)
		if err != nil {
			t.Fatal(err)
		}
		ovSingle, _ := partition.Overlap(old, single)
		ovIter, _ := partition.Overlap(old, iter)
		ovOpt, _ := partition.Overlap(old, opt)
		if ovSingle > ovOpt || ovIter > ovOpt {
			t.Fatalf("heuristic beat brute force: %d/%d > %d", ovSingle, ovIter, ovOpt)
		}
		if ovIter < ovSingle {
			t.Fatalf("iterated (%d) worse than single sweep (%d)", ovIter, ovSingle)
		}
		if ovOpt > 0 {
			if r := float64(ovSingle) / float64(ovOpt); r < worstSingle {
				worstSingle = r
			}
			if r := float64(ovIter) / float64(ovOpt); r < worstIter {
				worstIter = r
			}
		}
	}
	if worstSingle < 0.65 {
		t.Errorf("single-sweep MCR worst-case ratio %.3f, want >= 0.65", worstSingle)
	}
	if worstIter < 0.9 {
		t.Errorf("iterated MCR worst-case ratio %.3f, want >= 0.9", worstIter)
	}
}

func TestMCRWithMessageCost(t *testing.T) {
	old, err := partition.NewBlock(100, []float64{0.27, 0.18, 0.34, 0.07, 0.14})
	if err != nil {
		t.Fatal(err)
	}
	newW := []float64{0.10, 0.13, 0.29, 0.24, 0.24}
	withMsgs, err := MinimizeCostRedistribution(old, newW, OverlapMessagesCost(2))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := MinimizeCostRedistribution(old, newW, nil) // nil defaults to OverlapCost
	if err != nil {
		t.Fatal(err)
	}
	mw, _ := partition.Messages(old, withMsgs)
	mp, _ := partition.Messages(old, plain)
	if mw > mp {
		t.Errorf("message-aware cost produced more messages (%d) than overlap-only (%d)", mw, mp)
	}
}

func TestMCRErrors(t *testing.T) {
	old, _ := partition.NewUniform(10, 3)
	if _, err := MinimizeCostRedistribution(old, []float64{1, 1}, nil); err == nil {
		t.Error("weight length mismatch accepted")
	}
	if _, err := MinimizeCostRedistribution(old, []float64{1, -1, 1}, nil); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := BruteForce(old, []float64{1, 1}, nil); err == nil {
		t.Error("brute force weight mismatch accepted")
	}
	big, _ := partition.NewUniform(100, 10)
	w := make([]float64, 10)
	for i := range w {
		w[i] = 1
	}
	if _, err := BruteForce(big, w, nil); err == nil {
		t.Error("brute force p=10 accepted")
	}
}

func randWeights(rng *rand.Rand, p int) []float64 {
	w := make([]float64, p)
	for i := range w {
		w[i] = rng.Float64() + 0.05
	}
	return w
}

func TestNewPlanPartitionsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		p := rng.Intn(6) + 2
		n := int64(rng.Intn(500) + 50)
		old, err := partition.NewBlock(n, randWeights(rng, p))
		if err != nil {
			t.Fatal(err)
		}
		new, err := MinimizeCostRedistribution(old, randWeights(rng, p), OverlapCost)
		if err != nil {
			t.Fatal(err)
		}
		// Every new-layout element must be covered exactly once by
		// Keep or Recvs; every old element by Keep or Sends.
		for proc := 0; proc < p; proc++ {
			pl, err := NewPlan(old, new, proc)
			if err != nil {
				t.Fatal(err)
			}
			var kept, sent, recvd int64
			kept = pl.Keep.Len()
			for _, s := range pl.Sends {
				sent += s.Global.Len()
				if s.Peer == proc {
					t.Fatal("send to self")
				}
			}
			for _, r := range pl.Recvs {
				recvd += r.Global.Len()
				if r.Peer == proc {
					t.Fatal("recv from self")
				}
			}
			if kept+sent != pl.Old.Len() {
				t.Fatalf("proc %d: kept %d + sent %d != old %d", proc, kept, sent, pl.Old.Len())
			}
			if kept+recvd != pl.New.Len() {
				t.Fatalf("proc %d: kept %d + recvd %d != new %d", proc, kept, recvd, pl.New.Len())
			}
		}
		// Sends and Recvs must pair up across processors.
		type key struct {
			src, dst int
			lo, hi   int64
		}
		sends := map[key]bool{}
		for proc := 0; proc < p; proc++ {
			pl, _ := NewPlan(old, new, proc)
			for _, s := range pl.Sends {
				sends[key{proc, s.Peer, s.Global.Lo, s.Global.Hi}] = true
			}
		}
		for proc := 0; proc < p; proc++ {
			pl, _ := NewPlan(old, new, proc)
			for _, r := range pl.Recvs {
				if !sends[key{r.Peer, proc, r.Global.Lo, r.Global.Hi}] {
					t.Fatalf("recv %+v on proc %d has no matching send", r, proc)
				}
			}
		}
	}
}

func TestNewPlanErrors(t *testing.T) {
	a, _ := partition.NewUniform(10, 2)
	b, _ := partition.NewUniform(12, 2)
	if _, err := NewPlan(a, b, 0); err == nil {
		t.Error("incompatible layouts accepted")
	}
	if _, err := NewPlan(a, a, 5); err == nil {
		t.Error("bad proc accepted")
	}
}

func TestApplyLocal(t *testing.T) {
	old, _ := partition.NewBlock(10, []float64{0.5, 0.5})
	new, _ := partition.NewBlock(10, []float64{0.8, 0.2})
	pl, err := NewPlan(old, new, 0)
	if err != nil {
		t.Fatal(err)
	}
	oldData := []float64{0, 1, 2, 3, 4}
	newData := make([]float64, 8)
	if err := pl.ApplyLocal(oldData, newData); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if newData[i] != float64(i) {
			t.Fatalf("kept data wrong: %v", newData)
		}
	}
	if err := pl.ApplyLocal(oldData[:2], newData); err == nil {
		t.Error("short old data accepted")
	}
	if err := pl.ApplyLocal(oldData, newData[:2]); err == nil {
		t.Error("short new data accepted")
	}
}

func TestMovedBytes(t *testing.T) {
	old, _ := partition.NewBlock(10, []float64{0.5, 0.5})
	new, _ := partition.NewBlock(10, []float64{0.2, 0.8})
	pl, _ := NewPlan(old, new, 0)
	// Processor 0 shrinks from [0,5) to [0,2): sends 3 elements.
	if got := pl.MovedBytes(); got != 24 {
		t.Errorf("MovedBytes = %d, want 24", got)
	}
}

func TestCostModelEstimate(t *testing.T) {
	old, _ := partition.NewBlock(100, []float64{1, 1})
	new, _ := partition.NewBlock(100, []float64{3, 1})
	m := CostModel{PerMessage: 0.001, PerByte: 1e-6}
	est, err := m.Estimate(old, new)
	if err != nil {
		t.Fatal(err)
	}
	// 25 elements move (one message): 0.001 + 25*8*1e-6 = 0.0012.
	want := 0.001 + 200e-6
	if est < want-1e-12 || est > want+1e-12 {
		t.Errorf("Estimate = %v, want %v", est, want)
	}
	if est2, _ := m.Estimate(old, old); est2 != 0 {
		t.Errorf("self estimate = %v, want 0", est2)
	}
}
