package order

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"

	"stance/internal/geom"
	"stance/internal/graph"
)

// RCB computes a recursive-coordinate-bisection index (paper Figure
// 2): the point set is recursively split at the median of its longest
// axis, and the leaves of the recursion are numbered left to right.
// Vertices that are physically proximate end up with nearby indices.
func RCB(g *graph.Graph) ([]int32, error) {
	if err := checkCoords(g, "RCB"); err != nil {
		return nil, err
	}
	return bisect(g, axisLongest, false), nil
}

// RIB computes a recursive-inertial-bisection index: like RCB but each
// split is along the principal axis of the point subset (the direction
// of greatest variance), which adapts to non-axis-aligned geometry.
func RIB(g *graph.Graph) ([]int32, error) {
	if err := checkCoords(g, "RIB"); err != nil {
		return nil, err
	}
	// The principal axis is a floating-point sum over the subset in
	// slice order, so each subset must reach its level in (key, id)
	// order for the result to be a function of the input alone.
	return bisect(g, axisPrincipal, true), nil
}

// checkCoords rejects graphs the coordinate orderings cannot order:
// no coordinates, or a NaN or infinite one, under which (key, id) is
// not a total order and the split is whatever the sort happened to do.
func checkCoords(g *graph.Graph, name string) error {
	if g.Coords == nil {
		return fmt.Errorf("order: %s requires vertex coordinates", name)
	}
	for v, p := range g.Coords {
		for _, x := range [3]float64{p.X, p.Y, p.Z} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("order: non-finite coordinate at vertex %d", v)
			}
		}
	}
	return nil
}

// keyed is a vertex and its scalar key at the current bisection level.
// Vertex ids are distinct, so (key, id) is a strict total order: the
// sorted sequence, and with it the lower half of every split, is
// fixed by the keys and not by the algorithm that finds it.
type keyed struct {
	key float64
	id  int32
}

func (a keyed) less(b keyed) bool {
	return a.key < b.key || (a.key == b.key && a.id < b.id)
}

func compareKeyed(a, b keyed) int {
	switch {
	case a.less(b):
		return -1
	case b.less(a):
		return 1
	}
	return 0
}

// axisKey fills in, for the point subset s, the scalar keys to bisect
// by.
type axisKey func(s []keyed, coords []geom.Point)

// axisLongest keys by the coordinate along the bounding box's longest
// axis.
func axisLongest(s []keyed, coords []geom.Point) {
	b := geom.EmptyBox()
	for _, it := range s {
		p := coords[it.id]
		b.Min = geom.Point{X: min(b.Min.X, p.X), Y: min(b.Min.Y, p.Y), Z: min(b.Min.Z, p.Z)}
		b.Max = geom.Point{X: max(b.Max.X, p.X), Y: max(b.Max.Y, p.Y), Z: max(b.Max.Z, p.Z)}
	}
	// One loop per axis keeps the axis choice out of the loop body.
	switch b.LongestAxis() {
	case 0:
		for i := range s {
			s[i].key = coords[s[i].id].X
		}
	case 1:
		for i := range s {
			s[i].key = coords[s[i].id].Y
		}
	default:
		for i := range s {
			s[i].key = coords[s[i].id].Z
		}
	}
}

// axisPrincipal keys by projection onto the principal component of the
// subset, computed by power iteration on the 3x3 covariance matrix.
func axisPrincipal(s []keyed, coords []geom.Point) {
	var c geom.Point
	for _, it := range s {
		c = c.Add(coords[it.id])
	}
	c = c.Scale(1 / float64(len(s)))
	// Covariance matrix (symmetric 3x3).
	var m [3][3]float64
	for _, it := range s {
		d := coords[it.id].Sub(c)
		dv := [3]float64{d.X, d.Y, d.Z}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m[i][j] += dv[i] * dv[j]
			}
		}
	}
	// Power iteration from a fixed start.
	vec := [3]float64{1, 0.5, 0.25}
	for it := 0; it < 50; it++ {
		var nv [3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				nv[i] += m[i][j] * vec[j]
			}
		}
		norm := math.Sqrt(nv[0]*nv[0] + nv[1]*nv[1] + nv[2]*nv[2])
		if norm == 0 {
			break // degenerate subset (all points identical)
		}
		for i := range nv {
			nv[i] /= norm
		}
		vec = nv
	}
	dir := geom.Point{X: vec[0], Y: vec[1], Z: vec[2]}
	for i := range s {
		s[i].key = coords[s[i].id].Sub(c).Dot(dir)
	}
}

// parallelMin is the smallest subset whose two halves are worth a
// goroutine: below it the hand-off costs more than the half's work.
const parallelMin = 4096

// bisection is the state one RCB/RIB run shares across its recursion.
type bisection struct {
	coords []geom.Point
	axis   axisKey
	// sorted makes every level order its subset fully instead of only
	// splitting it at the median.
	sorted bool
	// slots bounds the extra goroutines to GOMAXPROCS-1; halves run
	// on disjoint sub-slices, so they share nothing else.
	slots chan struct{}
}

// bisect runs the recursive bisection and returns its permutation.
func bisect(g *graph.Graph, axis axisKey, sorted bool) []int32 {
	s := make([]keyed, g.N)
	for i := range s {
		s[i].id = int32(i)
	}
	b := &bisection{
		coords: g.Coords,
		axis:   axis,
		sorted: sorted,
		slots:  make(chan struct{}, runtime.GOMAXPROCS(0)-1),
	}
	b.recurse(s)
	perm := make([]int32, len(s))
	for i, it := range s {
		perm[it.id] = int32(i)
	}
	return perm
}

// recurse reorders s in place so that the recursion's leaves read left
// to right.
func (b *bisection) recurse(s []keyed) {
	if len(s) < 2 {
		return
	}
	b.axis(s, b.coords)
	if len(s) == 2 {
		if s[1].less(s[0]) {
			s[0], s[1] = s[1], s[0]
		}
		return
	}
	mid := len(s) / 2
	if b.sorted {
		slices.SortFunc(s, compareKeyed)
	} else {
		selectLowest(s, mid)
	}
	if len(s) >= parallelMin {
		select {
		case b.slots <- struct{}{}:
			done := make(chan struct{})
			go func() {
				b.recurse(s[:mid])
				<-b.slots
				close(done)
			}()
			b.recurse(s[mid:])
			<-done
			return
		default:
		}
	}
	b.recurse(s[:mid])
	b.recurse(s[mid:])
}

// selectLowest rearranges s so that s[:k] holds its k lowest elements,
// each part in no particular order: quickselect, with a full sort of
// the remaining range once the pivots have failed to halve it often
// enough, so that no input costs more than O(n log n).
func selectLowest(s []keyed, k int) {
	for budget := 2 * bits.Len(uint(len(s))); len(s) > 12 && budget > 0; budget-- {
		p := partition(s)
		switch {
		case k < p:
			s = s[:p]
		case k > p+1:
			s, k = s[p+1:], k-p-1
		default: // s[p] already separates s[:k] from s[k:]
			return
		}
	}
	slices.SortFunc(s, compareKeyed)
}

// partition moves the median of s's first, middle and last elements to
// its sorted position p, everything lower before it and everything
// higher after it, and returns p.
func partition(s []keyed) int {
	m, hi := len(s)/2, len(s)-1
	if s[m].less(s[0]) {
		s[0], s[m] = s[m], s[0]
	}
	if s[hi].less(s[0]) {
		s[0], s[hi] = s[hi], s[0]
	}
	if s[hi].less(s[m]) {
		s[m], s[hi] = s[hi], s[m]
	}
	s[0], s[m] = s[m], s[0]
	pivot := s[0]
	i, j := 1, hi
	for {
		for i <= j && s[i].less(pivot) {
			i++
		}
		for i <= j && pivot.less(s[j]) {
			j--
		}
		if i >= j {
			break
		}
		s[i], s[j] = s[j], s[i]
		i++
		j--
	}
	s[0], s[j] = s[j], s[0]
	return j
}

// RCBStages returns the intermediate partitions of the first `levels`
// levels of recursive coordinate bisection, for visualizing paper
// Figure 2: stage k maps each vertex to one of 2^k cells.
func RCBStages(g *graph.Graph, levels int) ([][]int32, error) {
	if err := checkCoords(g, "RCB"); err != nil {
		return nil, err
	}
	if levels < 1 {
		return nil, fmt.Errorf("order: levels must be >= 1, got %d", levels)
	}
	s := make([]keyed, g.N)
	for i := range s {
		s[i].id = int32(i)
	}
	// stages[k][v] is the cell (0..2^(k+1)-1) of vertex v after k+1
	// bisection levels.
	stages := make([][]int32, levels)
	for k := range stages {
		stages[k] = make([]int32, g.N)
	}
	var walk func(s []keyed, level int, cell int32)
	walk = func(s []keyed, level int, cell int32) {
		if level >= levels {
			return
		}
		if len(s) < 2 {
			// A cell too small to split stays put in all deeper stages.
			c := cell
			for k := level; k < levels; k++ {
				c *= 2
				for _, it := range s {
					stages[k][it.id] = c
				}
			}
			return
		}
		axisLongest(s, g.Coords)
		mid := len(s) / 2
		selectLowest(s, mid)
		left, right := s[:mid], s[mid:]
		for _, it := range left {
			stages[level][it.id] = 2 * cell
		}
		for _, it := range right {
			stages[level][it.id] = 2*cell + 1
		}
		walk(left, level+1, 2*cell)
		walk(right, level+1, 2*cell+1)
	}
	walk(s, 0, 0)
	return stages, nil
}
