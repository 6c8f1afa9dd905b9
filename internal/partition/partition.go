// Package partition implements the one-dimensional data-distribution
// model of paper Sections 3.1 and 3.4. After the locality transform
// (package order), the data is a list of n elements; a *Layout* assigns
// each processor one contiguous interval, with interval sizes
// proportional to processor capability and an *arrangement* choosing
// which processor holds which position along the list. Re-partitioning
// quality is measured by the overlap between old and new layouts (data
// that does not move) and by the number of messages a redistribution
// generates — the two quantities MinimizeCostRedistribution trades off.
package partition

import (
	"fmt"
	"math"
	"sort"
)

// Interval is the half-open range [Lo, Hi) of global list indices.
type Interval struct {
	Lo, Hi int64
}

// Len returns the number of elements in the interval.
func (iv Interval) Len() int64 {
	if iv.Hi < iv.Lo {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Contains reports whether g lies in the interval.
func (iv Interval) Contains(g int64) bool { return g >= iv.Lo && g < iv.Hi }

// Intersect returns the intersection of two intervals (possibly
// empty, with Len() == 0).
func (iv Interval) Intersect(o Interval) Interval {
	lo, hi := iv.Lo, iv.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if hi < lo {
		hi = lo
	}
	return Interval{lo, hi}
}

// SizesFromWeights apportions n elements to p processors in proportion
// to weights, using the largest-remainder method so that the sizes sum
// exactly to n. Weights must be finite and non-negative with a positive,
// finite sum.
func SizesFromWeights(n int64, weights []float64) ([]int64, error) {
	if n < 0 {
		return nil, fmt.Errorf("partition: negative element count %d", n)
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("partition: no weights")
	}
	total := 0.0
	for i, w := range weights {
		if badWeight(w) {
			return nil, fmt.Errorf("partition: weight %g at %d, want finite and non-negative", w, i)
		}
		total += w
	}
	if !(total > 0) || badWeight(total) {
		return nil, fmt.Errorf("partition: weights sum to %g, want positive and finite", total)
	}
	sizes := make([]int64, len(weights))
	type rem struct {
		frac float64
		i    int
	}
	rems := make([]rem, len(weights))
	var assigned int64
	for i, w := range weights {
		exact := float64(n) * w / total
		if badWeight(exact) {
			return nil, fmt.Errorf("partition: weight %g at %d overflows %d elements", w, i, n)
		}
		sizes[i] = int64(exact)
		rems[i] = rem{exact - float64(sizes[i]), i}
		assigned += sizes[i]
	}
	sort.SliceStable(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].i < rems[b].i
	})
	for k := int64(0); k < n-assigned; k++ {
		sizes[rems[k%int64(len(rems))].i]++
	}
	return sizes, nil
}

// badWeight reports a weight that is negative, NaN or infinite: the
// cuts turn weights into int64 sizes, and such a weight has none.
func badWeight(w float64) bool { return !(w >= 0) || math.IsInf(w, 1) }

// Layout is a complete distribution: n elements cut into p contiguous
// blocks; block k (left to right) has size Sizes[k] and is owned by
// processor Arrangement[k]. The paper's default is the identity
// arrangement (processor i holds block i); MinimizeCostRedistribution
// searches over arrangements.
type Layout struct {
	n           int64
	arrangement []int   // position -> processor
	position    []int   // processor -> position
	starts      []int64 // position -> first global index; len p+1
}

// New builds a layout for n elements with per-processor weights and an
// explicit arrangement (a permutation of 0..p-1 giving the processor
// at each position).
func New(n int64, weights []float64, arrangement []int) (*Layout, error) {
	sizes, err := SizesFromWeights(n, weights)
	if err != nil {
		return nil, err
	}
	return fromSizes(n, sizes, arrangement)
}

// NewBlock builds the default layout: identity arrangement, sizes from
// weights.
func NewBlock(n int64, weights []float64) (*Layout, error) {
	arr := make([]int, len(weights))
	for i := range arr {
		arr[i] = i
	}
	return New(n, weights, arr)
}

// NewUniform builds the layout for p equally capable processors.
func NewUniform(n int64, p int) (*Layout, error) {
	if p <= 0 {
		return nil, fmt.Errorf("partition: p must be positive, got %d", p)
	}
	w := make([]float64, p)
	for i := range w {
		w[i] = 1
	}
	return NewBlock(n, w)
}

func fromSizes(n int64, sizes []int64, arrangement []int) (*Layout, error) {
	p := len(sizes)
	if len(arrangement) != p {
		return nil, fmt.Errorf("partition: arrangement length %d, want %d", len(arrangement), p)
	}
	position := make([]int, p)
	for i := range position {
		position[i] = -1
	}
	for pos, proc := range arrangement {
		if proc < 0 || proc >= p {
			return nil, fmt.Errorf("partition: arrangement[%d] = %d out of range", pos, proc)
		}
		if position[proc] != -1 {
			return nil, fmt.Errorf("partition: processor %d appears twice in arrangement", proc)
		}
		position[proc] = pos
	}
	l := &Layout{
		n:           n,
		arrangement: append([]int(nil), arrangement...),
		position:    position,
		starts:      make([]int64, p+1),
	}
	for pos := 0; pos < p; pos++ {
		// Block at position pos has the size belonging to the
		// processor that occupies it.
		l.starts[pos+1] = l.starts[pos] + sizes[arrangement[pos]]
	}
	if l.starts[p] != n {
		return nil, fmt.Errorf("partition: sizes sum to %d, want %d", l.starts[p], n)
	}
	return l, nil
}

// NewFromStarts rebuilds a layout from its per-position start offsets
// (length p+1, as returned by Starts) and arrangement — the inverse of
// (Starts, Arrangement), used to ship a layout across the wire during
// membership transitions so ranks that were parked when it was cut can
// reconstruct it.
func NewFromStarts(starts []int64, arrangement []int) (*Layout, error) {
	if len(starts) != len(arrangement)+1 {
		return nil, fmt.Errorf("partition: %d starts for %d arrangement entries", len(starts), len(arrangement))
	}
	if starts[0] != 0 {
		return nil, fmt.Errorf("partition: starts begin at %d, want 0", starts[0])
	}
	sizes := make([]int64, len(arrangement))
	for pos, proc := range arrangement {
		if proc < 0 || proc >= len(arrangement) {
			return nil, fmt.Errorf("partition: arrangement[%d] = %d out of range", pos, proc)
		}
		if starts[pos+1] < starts[pos] {
			return nil, fmt.Errorf("partition: starts decrease at position %d", pos)
		}
		sizes[proc] = starts[pos+1] - starts[pos]
	}
	return fromSizes(starts[len(starts)-1], sizes, arrangement)
}

// NewFromSizes builds a layout directly from per-processor block sizes
// (indexed by processor id, not position) and an arrangement.
func NewFromSizes(sizes []int64, arrangement []int) (*Layout, error) {
	var n int64
	for i, s := range sizes {
		if s < 0 {
			return nil, fmt.Errorf("partition: negative size %d at %d", s, i)
		}
		n += s
	}
	return fromSizes(n, sizes, arrangement)
}

// P returns the number of processors.
func (l *Layout) P() int { return len(l.arrangement) }

// N returns the number of elements.
func (l *Layout) N() int64 { return l.n }

// Arrangement returns a copy of position -> processor.
func (l *Layout) Arrangement() []int { return append([]int(nil), l.arrangement...) }

// Interval returns the interval owned by processor proc.
func (l *Layout) Interval(proc int) Interval {
	pos := l.position[proc]
	return Interval{l.starts[pos], l.starts[pos+1]}
}

// Size returns the number of elements owned by proc.
func (l *Layout) Size(proc int) int64 { return l.Interval(proc).Len() }

// Starts returns a copy of the per-position start offsets (length
// p+1). This — together with the arrangement — is the entire
// replicated translation state the paper's Figure 3 scheme needs:
// memory proportional to the number of processors.
func (l *Layout) Starts() []int64 { return append([]int64(nil), l.starts...) }

// Owner returns the processor holding global index g.
func (l *Layout) Owner(g int64) (int, error) {
	pos, err := l.ownerPos(g)
	if err != nil {
		return 0, err
	}
	return l.arrangement[pos], nil
}

func (l *Layout) ownerPos(g int64) (int, error) {
	if g < 0 || g >= l.n {
		return 0, fmt.Errorf("partition: index %d out of range [0,%d)", g, l.n)
	}
	// Binary search over starts: the largest pos with starts[pos] <= g.
	pos := sort.Search(len(l.starts), func(i int) bool { return l.starts[i] > g }) - 1
	// Skip empty blocks that share the same start.
	for l.starts[pos+1] == l.starts[pos] {
		pos++
	}
	return pos, nil
}

// Locate translates a global index into its (processor, local index)
// pair — the dereference operation of paper Section 3.2 using the
// interval table.
func (l *Layout) Locate(g int64) (proc int, local int64, err error) {
	pos, err := l.ownerPos(g)
	if err != nil {
		return 0, 0, err
	}
	return l.arrangement[pos], g - l.starts[pos], nil
}

// Local translates a global index owned by proc into its local index,
// or an error if proc does not own g.
func (l *Layout) Local(proc int, g int64) (int64, error) {
	iv := l.Interval(proc)
	if !iv.Contains(g) {
		return 0, fmt.Errorf("partition: index %d not owned by processor %d", g, proc)
	}
	return g - iv.Lo, nil
}

// Global translates proc's local index into the global index.
func (l *Layout) Global(proc int, local int64) (int64, error) {
	iv := l.Interval(proc)
	if local < 0 || local >= iv.Len() {
		return 0, fmt.Errorf("partition: local index %d out of range [0,%d) on processor %d",
			local, iv.Len(), proc)
	}
	return iv.Lo + local, nil
}

// Equal reports whether two layouts distribute the same list the same
// way.
func (l *Layout) Equal(o *Layout) bool {
	if l.n != o.n || len(l.arrangement) != len(o.arrangement) {
		return false
	}
	for i := range l.arrangement {
		if l.arrangement[i] != o.arrangement[i] || l.starts[i] != o.starts[i] {
			return false
		}
	}
	return l.starts[len(l.starts)-1] == o.starts[len(o.starts)-1]
}

// Overlap returns the number of elements that stay on their current
// processor when moving from layout a to layout b (paper Section 3.4:
// the quantity MCR maximizes).
func Overlap(a, b *Layout) (int64, error) {
	if err := compatible(a, b); err != nil {
		return 0, err
	}
	var total int64
	for proc := 0; proc < a.P(); proc++ {
		total += a.Interval(proc).Intersect(b.Interval(proc)).Len()
	}
	return total, nil
}

// Moved returns the number of elements that must cross the network
// when moving from layout a to layout b.
func Moved(a, b *Layout) (int64, error) {
	ov, err := Overlap(a, b)
	if err != nil {
		return 0, err
	}
	return a.n - ov, nil
}

// Messages returns the number of point-to-point messages a
// redistribution from a to b generates: the number of ordered
// processor pairs (src != dst) for which some elements move from src's
// old interval into dst's new interval.
func Messages(a, b *Layout) (int, error) {
	if err := compatible(a, b); err != nil {
		return 0, err
	}
	count := 0
	for src := 0; src < a.P(); src++ {
		old := a.Interval(src)
		for dst := 0; dst < b.P(); dst++ {
			if src == dst {
				continue
			}
			if old.Intersect(b.Interval(dst)).Len() > 0 {
				count++
			}
		}
	}
	return count, nil
}

func compatible(a, b *Layout) error {
	if a.n != b.n {
		return fmt.Errorf("partition: layouts cover %d and %d elements", a.n, b.n)
	}
	if a.P() != b.P() {
		return fmt.Errorf("partition: layouts have %d and %d processors", a.P(), b.P())
	}
	return nil
}
