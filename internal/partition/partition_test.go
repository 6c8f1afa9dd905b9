package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSizesFromWeightsExact(t *testing.T) {
	sizes, err := SizesFromWeights(100, []float64{0.27, 0.18, 0.34, 0.07, 0.14})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{27, 18, 34, 7, 14}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
}

func TestSizesFromWeightsRounding(t *testing.T) {
	sizes, err := SizesFromWeights(10, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, s := range sizes {
		sum += s
		if s < 3 || s > 4 {
			t.Errorf("unbalanced size %d", s)
		}
	}
	if sum != 10 {
		t.Errorf("sum = %d, want 10", sum)
	}
}

func TestSizesFromWeightsErrors(t *testing.T) {
	if _, err := SizesFromWeights(-1, []float64{1}); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := SizesFromWeights(10, nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := SizesFromWeights(10, []float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := SizesFromWeights(10, []float64{0, 0}); err == nil {
		t.Error("zero-sum weights accepted")
	}
	// Non-finite weights once came back as garbage sizes with a nil
	// error; a sum or a share past float64 range would too.
	for _, w := range [][]float64{
		{math.NaN(), 1}, {math.Inf(1), 1}, {1, math.Inf(-1)},
		{math.MaxFloat64, math.MaxFloat64}, {1e307, 1},
	} {
		if sizes, err := SizesFromWeights(100, w); err == nil {
			t.Errorf("weights %v accepted as sizes %v", w, sizes)
		}
	}
}

func TestSizesSumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int64(nRaw)
		p := int(pRaw%20) + 1
		weights := make([]float64, p)
		for i := range weights {
			weights[i] = rng.Float64() + 0.01
		}
		sizes, err := SizesFromWeights(n, weights)
		if err != nil {
			return false
		}
		var sum int64
		for _, s := range sizes {
			if s < 0 {
				return false
			}
			sum += s
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIntervalOps(t *testing.T) {
	iv := Interval{10, 20}
	if iv.Len() != 10 {
		t.Errorf("Len = %d", iv.Len())
	}
	if !iv.Contains(10) || iv.Contains(20) || iv.Contains(9) {
		t.Error("Contains wrong at boundaries")
	}
	got := iv.Intersect(Interval{15, 30})
	if got != (Interval{15, 20}) {
		t.Errorf("Intersect = %+v", got)
	}
	empty := iv.Intersect(Interval{30, 40})
	if empty.Len() != 0 {
		t.Errorf("disjoint Intersect Len = %d", empty.Len())
	}
	if (Interval{5, 3}).Len() != 0 {
		t.Error("inverted interval should have zero length")
	}
}

func TestLayoutBasics(t *testing.T) {
	l, err := NewBlock(100, []float64{0.27, 0.18, 0.34, 0.07, 0.14})
	if err != nil {
		t.Fatal(err)
	}
	if l.P() != 5 || l.N() != 100 {
		t.Fatalf("P=%d N=%d", l.P(), l.N())
	}
	wantIv := []Interval{{0, 27}, {27, 45}, {45, 79}, {79, 86}, {86, 100}}
	for proc, want := range wantIv {
		if got := l.Interval(proc); got != want {
			t.Errorf("Interval(%d) = %+v, want %+v", proc, got, want)
		}
	}
	if owner, _ := l.Owner(0); owner != 0 {
		t.Error("Owner(0) wrong")
	}
	if owner, _ := l.Owner(99); owner != 4 {
		t.Error("Owner(99) wrong")
	}
	if owner, _ := l.Owner(45); owner != 2 {
		t.Error("Owner(45) wrong")
	}
	if _, err := l.Owner(100); err == nil {
		t.Error("Owner(100) accepted")
	}
	if _, err := l.Owner(-1); err == nil {
		t.Error("Owner(-1) accepted")
	}
}

func TestLayoutArrangement(t *testing.T) {
	// Arrangement (P0, P3, P1, P2, P4) from paper Figure 5(b).
	l, err := New(100, []float64{0.10, 0.13, 0.29, 0.24, 0.24}, []int{0, 3, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Interval(0); got != (Interval{0, 10}) {
		t.Errorf("P0 = %+v", got)
	}
	if got := l.Interval(3); got != (Interval{10, 34}) {
		t.Errorf("P3 = %+v", got)
	}
	if got := l.Interval(1); got != (Interval{34, 47}) {
		t.Errorf("P1 = %+v", got)
	}
	if got := l.Interval(2); got != (Interval{47, 76}) {
		t.Errorf("P2 = %+v", got)
	}
	if got := l.Interval(4); got != (Interval{76, 100}) {
		t.Errorf("P4 = %+v", got)
	}
}

func TestLayoutErrors(t *testing.T) {
	if _, err := New(10, []float64{1, 1}, []int{0}); err == nil {
		t.Error("short arrangement accepted")
	}
	if _, err := New(10, []float64{1, 1}, []int{0, 2}); err == nil {
		t.Error("out-of-range arrangement accepted")
	}
	if _, err := New(10, []float64{1, 1}, []int{0, 0}); err == nil {
		t.Error("duplicate arrangement accepted")
	}
	if _, err := NewUniform(10, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := NewFromSizes([]int64{-1, 2}, []int{0, 1}); err == nil {
		t.Error("negative size accepted")
	}
}

func TestLocateRoundTrip(t *testing.T) {
	l, err := New(57, []float64{3, 1, 2}, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for g := int64(0); g < l.N(); g++ {
		proc, local, err := l.Locate(g)
		if err != nil {
			t.Fatal(err)
		}
		back, err := l.Global(proc, local)
		if err != nil {
			t.Fatal(err)
		}
		if back != g {
			t.Fatalf("roundtrip %d -> (%d,%d) -> %d", g, proc, local, back)
		}
		l2, err := l.Local(proc, g)
		if err != nil || l2 != local {
			t.Fatalf("Local mismatch at %d", g)
		}
	}
	if _, err := l.Local(0, 0); err == nil {
		// Processor 0 is at position 1; global 0 belongs to processor 2.
		t.Error("Local accepted an unowned index")
	}
	if _, err := l.Global(0, 999); err == nil {
		t.Error("Global accepted out-of-range local index")
	}
}

func TestZeroWeightProcessor(t *testing.T) {
	l, err := NewBlock(10, []float64{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if l.Size(1) != 0 {
		t.Errorf("zero-weight processor owns %d", l.Size(1))
	}
	// All elements still findable and owned by procs 0/2.
	for g := int64(0); g < 10; g++ {
		owner, err := l.Owner(g)
		if err != nil {
			t.Fatal(err)
		}
		if owner == 1 {
			t.Fatalf("element %d assigned to empty processor", g)
		}
	}
}

func TestOverlapIdentity(t *testing.T) {
	l, err := NewUniform(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := Overlap(l, l)
	if err != nil {
		t.Fatal(err)
	}
	if ov != 100 {
		t.Errorf("self overlap = %d, want 100", ov)
	}
	moved, _ := Moved(l, l)
	if moved != 0 {
		t.Errorf("self moved = %d", moved)
	}
	msgs, _ := Messages(l, l)
	if msgs != 0 {
		t.Errorf("self messages = %d", msgs)
	}
}

// TestFigure5 reproduces the paper's Figure 5 example: 100 elements,
// capabilities 0.27/0.18/0.34/0.07/0.14 adapting to
// 0.10/0.13/0.29/0.24/0.24. Keeping the identity arrangement preserves
// far less data than the arrangement (P0,P3,P1,P2,P4). The paper
// reports 29 vs 65 overlapped elements and 5 vs 3 messages from its
// drawn intervals; exact largest-remainder arithmetic gives 31 vs 64
// and 6 vs 5 — same ranking, same ~2x overlap improvement.
func TestFigure5(t *testing.T) {
	old, err := NewBlock(100, []float64{0.27, 0.18, 0.34, 0.07, 0.14})
	if err != nil {
		t.Fatal(err)
	}
	newW := []float64{0.10, 0.13, 0.29, 0.24, 0.24}
	same, err := NewBlock(100, newW)
	if err != nil {
		t.Fatal(err)
	}
	better, err := New(100, newW, []int{0, 3, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}

	ovSame, _ := Overlap(old, same)
	ovBetter, _ := Overlap(old, better)
	if ovSame != 31 {
		t.Errorf("identity overlap = %d, want 31", ovSame)
	}
	if ovBetter != 64 {
		t.Errorf("rearranged overlap = %d, want 64", ovBetter)
	}
	if ovBetter <= ovSame {
		t.Error("rearrangement did not improve overlap")
	}

	msgSame, _ := Messages(old, same)
	msgBetter, _ := Messages(old, better)
	if msgSame != 6 {
		t.Errorf("identity messages = %d, want 6", msgSame)
	}
	if msgBetter != 5 {
		t.Errorf("rearranged messages = %d, want 5", msgBetter)
	}
	if msgBetter >= msgSame {
		t.Error("rearrangement did not reduce messages")
	}
}

func TestOverlapSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		p := rng.Intn(6) + 2
		n := int64(rng.Intn(500) + p)
		wa := randWeights(rng, p)
		wb := randWeights(rng, p)
		a, err := NewBlock(n, wa)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBlock(n, wb)
		if err != nil {
			t.Fatal(err)
		}
		ab, _ := Overlap(a, b)
		ba, _ := Overlap(b, a)
		if ab != ba {
			t.Fatalf("overlap not symmetric: %d vs %d", ab, ba)
		}
		if ab < 0 || ab > n {
			t.Fatalf("overlap %d out of range", ab)
		}
	}
}

func randWeights(rng *rand.Rand, p int) []float64 {
	w := make([]float64, p)
	for i := range w {
		w[i] = rng.Float64() + 0.05
	}
	return w
}

func TestOverlapIncompatible(t *testing.T) {
	a, _ := NewUniform(10, 2)
	b, _ := NewUniform(12, 2)
	c, _ := NewUniform(10, 3)
	if _, err := Overlap(a, b); err == nil {
		t.Error("different n accepted")
	}
	if _, err := Overlap(a, c); err == nil {
		t.Error("different p accepted")
	}
	if _, err := Messages(a, b); err == nil {
		t.Error("Messages with different n accepted")
	}
}

func TestEqual(t *testing.T) {
	a, _ := NewBlock(100, []float64{1, 2, 3})
	b, _ := NewBlock(100, []float64{1, 2, 3})
	c, _ := NewBlock(100, []float64{3, 2, 1})
	d, _ := New(100, []float64{1, 2, 3}, []int{2, 1, 0})
	if !a.Equal(b) {
		t.Error("identical layouts not equal")
	}
	if a.Equal(c) {
		t.Error("different sizes equal")
	}
	if a.Equal(d) {
		t.Error("different arrangements equal")
	}
}

func TestStartsCopy(t *testing.T) {
	l, _ := NewUniform(10, 2)
	s := l.Starts()
	s[0] = 999
	if l.Starts()[0] == 999 {
		t.Error("Starts leaked internal storage")
	}
	arr := l.Arrangement()
	arr[0] = 999
	if l.Arrangement()[0] == 999 {
		t.Error("Arrangement leaked internal storage")
	}
}

func TestOwnerCoversAllProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int64(nRaw%1000) + 1
		p := int(pRaw%8) + 1
		w := randWeights(rng, p)
		arr := rng.Perm(p)
		l, err := New(n, w, arr)
		if err != nil {
			return false
		}
		counts := make([]int64, p)
		for g := int64(0); g < n; g++ {
			proc, local, err := l.Locate(g)
			if err != nil {
				return false
			}
			if local != counts[proc] {
				return false // local indices must be dense and in order
			}
			counts[proc]++
		}
		for proc := 0; proc < p; proc++ {
			if counts[proc] != l.Size(proc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
