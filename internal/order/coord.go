package order

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

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
	b := newCoordBisection(g)
	b.perm = make([]int32, g.N)
	b.recurse(0, g.N, 0, 0)
	return b.perm, nil
}

// RIB computes a recursive-inertial-bisection index: like RCB but each
// split is along the principal axis of the point subset (the direction
// of greatest variance), which adapts to non-axis-aligned geometry.
func RIB(g *graph.Graph) ([]int32, error) {
	if err := checkCoords(g, "RIB"); err != nil {
		return nil, err
	}
	s := make([]keyed, g.N)
	for i := range s {
		s[i].id = int32(i)
	}
	b := &inertialBisection{coords: g.Coords, slots: goroutineSlots()}
	b.recurse(s)
	perm := make([]int32, len(s))
	for i, it := range s {
		perm[it.id] = int32(i)
	}
	return perm, nil
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

func compareKeyed(a, b keyed) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
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

// goroutineSlots bounds a bisection's extra goroutines to
// GOMAXPROCS-1; halves work on disjoint ranges, so they share nothing
// else.
func goroutineSlots() chan struct{} {
	return make(chan struct{}, runtime.GOMAXPROCS(0)-1)
}

// inertialBisection is the state one RIB run shares across its
// recursion.
type inertialBisection struct {
	coords []geom.Point
	slots  chan struct{}
}

// recurse reorders s in place so that the recursion's leaves read left
// to right. The principal axis is a floating-point sum over the subset
// in slice order, so every level sorts its subset fully by (key, id):
// each subset then reaches its level in one order, and the result is a
// function of the input alone.
func (b *inertialBisection) recurse(s []keyed) {
	if len(s) < 2 {
		return
	}
	axisPrincipal(s, b.coords)
	slices.SortFunc(s, compareKeyed)
	mid := len(s) / 2
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

// coordBisection is recursive coordinate bisection on presorted axis
// lists. Every vertex id is sorted once per axis by (coordinate, id);
// a subset of the recursion is a range [lo, hi) that holds the same
// ids in every list, each list in its own axis order. The subset's
// bounding box is then the first and last entry of each list, its
// median split on the chosen axis is the first half of that axis's
// list, and a stable partition of the other lists carries the order
// down to both halves.
//
// The result equals a full (key, id) sort at every level: the lists
// give the same box extents, hence the same axis, and the prefix of a
// (key, id)-sorted list is the set the sort's lower half holds. −0 and
// +0 share one sort key, as they compare equal; the box ends may then
// differ from a min/max scan in the sign of a zero, which leaves every
// extent, and so the axis, unchanged.
type coordBisection struct {
	coords []geom.Point
	// axes lists the axes that can be longest: 0, and 1 or 2 unless
	// its global extent is 0 (it never beats axis 0's extent then).
	axes []int
	// lists[a][lo:hi] is the subset's ids in (coordinate a, id) order;
	// ranks[a][v] is v's position in lists[a] as sorted, before any
	// split.
	lists, ranks [3][]int32
	// scratch holds a partition's right half in transit; the subset
	// [lo, hi) uses only scratch[lo:hi].
	scratch []int32
	// Exactly one of perm (RCB: leaf positions) and stages (RCBStages:
	// cells per level) is set.
	perm   []int32
	stages [][]int32
	slots  chan struct{}
}

// newCoordBisection sorts g's axis lists, the axes concurrently.
func newCoordBisection(g *graph.Graph) *coordBisection {
	b := &coordBisection{
		coords:  g.Coords,
		axes:    []int{0},
		scratch: make([]int32, g.N),
		slots:   goroutineSlots(),
	}
	for a := 1; a < 3; a++ {
		if slices.ContainsFunc(g.Coords, func(p geom.Point) bool { return p.Coord(a) != g.Coords[0].Coord(a) }) {
			b.axes = append(b.axes, a)
		}
	}
	var wg sync.WaitGroup
	for _, a := range b.axes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.lists[a], b.ranks[a] = sortAxis(g.Coords, a)
		}()
	}
	wg.Wait()
	return b
}

// sortKey maps x to a uint64 whose unsigned order is x's order, with
// −0 folded onto +0: the sign bit flipped for positives, every bit for
// negatives.
func sortKey(x float64) uint64 {
	k := math.Float64bits(x)
	if k == 1<<63 {
		k = 0
	}
	return k ^ (uint64(int64(k)>>63) | 1<<63)
}

// sortAxis returns the ids 0..n-1 in (coordinate a, id) order and each
// id's position in that list. Each id travels in one word, under the
// high half of its sortKey: a stable LSD radix sort of the words on
// that half, a byte per pass, leaves equal halves in id order. Each run
// of them then takes its keys' low halves instead and is sorted as
// words, which orders it by (key, id). Passes whose byte is the same
// for every word are skipped.
func sortAxis(coords []geom.Point, a int) (list, rank []int32) {
	n := len(coords)
	s, t := make([]uint64, n), make([]uint64, n)
	var count [4][256]int32
	for i, p := range coords {
		w := sortKey(p.Coord(a))&^math.MaxUint32 | uint64(i)
		s[i] = w
		for d := range count {
			count[d][w>>(32+8*d)%256]++
		}
	}
	for d := range count {
		shift := 32 + 8*d
		c := &count[d]
		if n == 0 || c[s[0]>>shift%256] == int32(n) {
			continue
		}
		var sum int32
		for i, k := range c {
			c[i] = sum
			sum += k
		}
		for _, w := range s {
			j := &c[w>>shift%256]
			t[*j] = w
			*j++
		}
		s, t = t, s
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && s[j]>>32 == s[i]>>32 {
			j++
		}
		if run := s[i:j]; len(run) > 1 {
			for k, w := range run {
				id := uint32(w)
				run[k] = sortKey(coords[id].Coord(a))<<32 | uint64(id)
			}
			slices.Sort(run)
		}
		i = j
	}
	list, rank = make([]int32, n), make([]int32, n)
	for i, w := range s {
		list[i] = int32(w)
		rank[int32(w)] = int32(i)
	}
	return list, rank
}

// recurse bisects the subset [lo, hi) at recursion depth level, which
// RCBStages numbers cell.
func (b *coordBisection) recurse(lo, hi, level int, cell int32) {
	if b.stages == nil && hi-lo <= 3 {
		b.small(lo, hi)
		return
	}
	if hi-lo < 2 {
		// A cell too small to split stays put in all deeper stages.
		for k := level; k < len(b.stages); k++ {
			cell *= 2
			for _, v := range b.lists[0][lo:hi] {
				b.stages[k][v] = cell
			}
		}
		return
	}
	c := b.longestAxis(lo, hi)
	mid := lo + (hi-lo)/2
	if b.stages != nil {
		for _, v := range b.lists[c][lo:mid] {
			b.stages[level][v] = 2 * cell
		}
		for _, v := range b.lists[c][mid:hi] {
			b.stages[level][v] = 2*cell + 1
		}
		if level+1 == len(b.stages) {
			return
		}
	}
	b.split(c, lo, mid, hi)
	if hi-lo >= parallelMin {
		select {
		case b.slots <- struct{}{}:
			done := make(chan struct{})
			go func() {
				b.recurse(lo, mid, level+1, 2*cell)
				<-b.slots
				close(done)
			}()
			b.recurse(mid, hi, level+1, 2*cell+1)
			<-done
			return
		default:
		}
	}
	b.recurse(lo, mid, level+1, 2*cell)
	b.recurse(mid, hi, level+1, 2*cell+1)
}

// small numbers an RCB subset of at most three vertices. Three split
// into the first on their longest axis and a pair, and a pair needs no
// lists: its box is its two points.
func (b *coordBisection) small(lo, hi int) {
	switch hi - lo {
	case 1:
		b.perm[b.lists[0][lo]] = int32(lo)
	case 2:
		b.pair(lo, b.lists[0][lo], b.lists[0][lo+1])
	case 3:
		list := b.lists[b.longestAxis(lo, hi)]
		b.perm[list[lo]] = int32(lo)
		b.pair(lo+1, list[lo+1], list[lo+2])
	}
}

// pair numbers u and v from pos on in (coordinate, id) order along
// their longest axis. |p−q| is the pair's max − min exactly: rounding
// is symmetric in sign. u comes before v in one of the lists, so when
// the two keys tie (the points coincide) they are already in id order.
func (b *coordBisection) pair(pos int, u, v int32) {
	p, q := b.coords[u], b.coords[v]
	best, bestExt := 0, math.Abs(p.X-q.X)
	for _, a := range b.axes[1:] {
		if ext := math.Abs(p.Coord(a) - q.Coord(a)); ext > bestExt {
			best, bestExt = a, ext
		}
	}
	if q.Coord(best) < p.Coord(best) {
		u, v = v, u
	}
	b.perm[u], b.perm[v] = int32(pos), int32(pos+1)
}

// longestAxis is geom.Box.LongestAxis of the subset [lo, hi), whose
// box on each axis is its list's first and last entry.
func (b *coordBisection) longestAxis(lo, hi int) int {
	best, bestExt := 0, 0.0
	for i, a := range b.axes {
		list := b.lists[a]
		ext := b.coords[list[hi-1]].Coord(a) - b.coords[list[lo]].Coord(a)
		if i == 0 || ext > bestExt {
			best, bestExt = a, ext
		}
	}
	return best
}

// split divides [lo, hi) at mid on axis c: lists[c] is already split,
// and every other list is partitioned stably by whether an id's rank on
// c falls below that of lists[c][mid], the first right-hand entry.
func (b *coordBisection) split(c, lo, mid, hi int) {
	rank := b.ranks[c]
	first := rank[b.lists[c][mid]]
	// The left run compacts in place behind the read position; the
	// right run goes to scratch (one slot more than it needs, for the
	// store a left entry makes there), then back behind the left run.
	right := b.scratch[lo : lo+hi-mid+1]
	for _, a := range b.axes {
		if a == c {
			continue
		}
		list := b.lists[a][lo:hi]
		l, r := 0, 0
		for _, v := range list {
			isLeft := int(uint32(rank[v]-first) >> 31)
			list[l] = v
			right[r] = v
			l += isLeft
			r += 1 - isLeft
		}
		copy(list[l:], right[:r])
	}
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
	// stages[k][v] is the cell (0..2^(k+1)-1) of vertex v after k+1
	// bisection levels.
	b := newCoordBisection(g)
	b.stages = make([][]int32, levels)
	for k := range b.stages {
		b.stages[k] = make([]int32, g.N)
	}
	b.recurse(0, g.N, 0, 0)
	return b.stages, nil
}
