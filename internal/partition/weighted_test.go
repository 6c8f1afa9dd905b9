package partition

import (
	"math"
	"math/rand"
	"testing"
)

func uniformItems(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func TestWeightedSizesUniformMatchesCounts(t *testing.T) {
	items := uniformItems(100)
	procW := []float64{0.27, 0.18, 0.34, 0.07, 0.14}
	got, err := WeightedSizes(items, procW)
	if err != nil {
		t.Fatal(err)
	}
	// With unit item weights the split must track the count-based
	// apportionment within one element per boundary.
	want, err := SizesFromWeights(100, procW)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i := range got {
		if d := got[i] - want[i]; d < -1 || d > 1 {
			t.Errorf("sizes[%d] = %d, count-based %d", i, got[i], want[i])
		}
		sum += got[i]
	}
	if sum != 100 {
		t.Errorf("sizes sum to %d", sum)
	}
}

func TestWeightedSizesSkewedItems(t *testing.T) {
	// First 10 items carry 10x weight: an equal 2-way split must give
	// the first processor far fewer items.
	items := uniformItems(100)
	for i := 0; i < 10; i++ {
		items[i] = 10
	}
	sizes, err := WeightedSizes(items, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Total weight 190; half is 95; the first 10 items carry 100 >= 95,
	// so the first block holds at most 10 items.
	if sizes[0] > 10 {
		t.Errorf("sizes[0] = %d, want <= 10 under 10x front-loaded weights", sizes[0])
	}
	if sizes[0]+sizes[1] != 100 {
		t.Errorf("sizes sum to %d", sizes[0]+sizes[1])
	}
}

func TestWeightedSizesBalanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(500) + 10
		p := rng.Intn(6) + 1
		items := make([]float64, n)
		maxItem := 0.0
		for i := range items {
			items[i] = rng.Float64()*2 + 0.01
			if items[i] > maxItem {
				maxItem = items[i]
			}
		}
		procW := make([]float64, p)
		for i := range procW {
			procW[i] = rng.Float64() + 0.1
		}
		sizes, err := WeightedSizes(items, procW)
		if err != nil {
			t.Fatal(err)
		}
		var totalProc float64
		for _, w := range procW {
			totalProc += w
		}
		var totalItem float64
		for _, w := range items {
			totalItem += w
		}
		// Each block's weight must be within one item of its target
		// (the cut granularity bound).
		idx := 0
		for proc := 0; proc < p; proc++ {
			blockW := 0.0
			for k := int64(0); k < sizes[proc]; k++ {
				blockW += items[idx]
				idx++
			}
			target := totalItem * procW[proc] / totalProc
			if math.Abs(blockW-target) > maxItem+1e-9 {
				t.Fatalf("trial %d: block %d weight %.3f, target %.3f, max item %.3f",
					trial, proc, blockW, target, maxItem)
			}
		}
		if idx != n {
			t.Fatalf("blocks cover %d of %d items", idx, n)
		}
	}
}

func TestWeightedSizesErrors(t *testing.T) {
	if _, err := WeightedSizes([]float64{1}, nil); err == nil {
		t.Error("no processor weights accepted")
	}
	if _, err := WeightedSizes([]float64{1}, []float64{-1, 2}); err == nil {
		t.Error("negative processor weight accepted")
	}
	if _, err := WeightedSizes([]float64{1}, []float64{0, 0}); err == nil {
		t.Error("zero processor weights accepted")
	}
	if _, err := WeightedSizes([]float64{-1, 1}, []float64{1}); err == nil {
		t.Error("negative item weight accepted")
	}
	if _, err := WeightedSizes([]float64{0, 0}, []float64{1}); err == nil {
		t.Error("zero item weights accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := WeightedSizes([]float64{1, bad, 1}, []float64{1, 1}); err == nil {
			t.Errorf("item weight %g accepted", bad)
		}
		if _, err := WeightedSizes([]float64{1, 1}, []float64{bad, 1}); err == nil {
			t.Errorf("processor weight %g accepted", bad)
		}
	}
}

func TestNewWeightedLayout(t *testing.T) {
	items := uniformItems(90)
	// Heavier tail.
	for i := 60; i < 90; i++ {
		items[i] = 3
	}
	procW := []float64{1, 1, 1}
	l, err := NewWeighted(items, procW, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if l.N() != 90 {
		t.Fatalf("N = %d", l.N())
	}
	// Block weights within one max item (3) of the target 60.
	for proc := 0; proc < 3; proc++ {
		w, err := l.BlockWeight(items, proc)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(w-50) > 3 {
			t.Errorf("block %d weight %.1f, want ~50", proc, w)
		}
	}
	// The heavy tail means the last processor owns fewer items.
	if !(l.Size(2) < l.Size(0)) {
		t.Errorf("sizes %d/%d/%d: heavy tail should shrink the last block",
			l.Size(0), l.Size(1), l.Size(2))
	}
}

func TestNewWeightedArrangement(t *testing.T) {
	items := uniformItems(100)
	for i := 0; i < 50; i++ {
		items[i] = 2
	}
	// Processor 1 (weight 3) stationed first: its block covers the
	// heavy prefix, so it gets fewer items than a count split would
	// give.
	l, err := NewWeighted(items, []float64{1, 3}, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	iv1 := l.Interval(1)
	if iv1.Lo != 0 {
		t.Errorf("processor 1 should hold the first block, got %+v", iv1)
	}
	w1, _ := l.BlockWeight(items, 1)
	w0, _ := l.BlockWeight(items, 0)
	if math.Abs(w1/(w1+w0)-0.75) > 0.03 {
		t.Errorf("weight split %.3f, want ~0.75", w1/(w1+w0))
	}
	if _, err := NewWeighted(items, []float64{1, 1}, []int{0}); err == nil {
		t.Error("short arrangement accepted")
	}
	if _, err := NewWeighted(items, []float64{1, 1}, []int{0, 5}); err == nil {
		t.Error("bad arrangement accepted")
	}
}

func TestBlockWeightErrors(t *testing.T) {
	l, _ := NewUniform(10, 2)
	if _, err := l.BlockWeight([]float64{1}, 0); err == nil {
		t.Error("short item weights accepted")
	}
}
