package comm

import "fmt"

// Topology assigns every rank of a world to a node group — the
// two-level structure of a nonuniform computational environment: fast
// links inside a group (one department's switched LAN, one SMP node),
// a slow shared link between groups. The partitioner cuts across
// groups before cutting within them, and a transport prices (or
// routes) a message by whether its endpoints share a group.
//
// A Topology is immutable after construction and safe for concurrent
// use.
type Topology struct {
	groupOf []int   // rank -> group id
	members [][]int // group id -> member ranks, ascending
}

// NewTopology builds a topology from a rank -> group assignment. Group
// ids must be a contiguous range 0..G-1 with every group non-empty, so
// that group ids index per-group state everywhere downstream.
func NewTopology(groupOf []int) (*Topology, error) {
	if len(groupOf) == 0 {
		return nil, fmt.Errorf("comm: topology over no ranks")
	}
	groups := 0
	for rank, g := range groupOf {
		if g < 0 || g >= len(groupOf) {
			return nil, fmt.Errorf("comm: rank %d assigned to group %d of at most %d", rank, g, len(groupOf))
		}
		if g+1 > groups {
			groups = g + 1
		}
	}
	members := make([][]int, groups)
	for rank, g := range groupOf {
		members[g] = append(members[g], rank)
	}
	for g, m := range members {
		if len(m) == 0 {
			return nil, fmt.Errorf("comm: group %d is empty (group ids must form a contiguous range)", g)
		}
	}
	return &Topology{groupOf: append([]int(nil), groupOf...), members: members}, nil
}

// ContiguousGroups builds the even block topology: p ranks split into
// groups contiguous blocks of near-equal size (the first p%groups
// groups get one extra rank) — the shape of a cluster of equal
// departments, and what the -groups CLI flags construct.
func ContiguousGroups(p, groups int) (*Topology, error) {
	if p <= 0 {
		return nil, fmt.Errorf("comm: topology over %d ranks", p)
	}
	if groups <= 0 || groups > p {
		return nil, fmt.Errorf("comm: %d groups over %d ranks", groups, p)
	}
	groupOf := make([]int, p)
	base, extra := p/groups, p%groups
	rank := 0
	for g := 0; g < groups; g++ {
		size := base
		if g < extra {
			size++
		}
		for k := 0; k < size; k++ {
			groupOf[rank] = g
			rank++
		}
	}
	return NewTopology(groupOf)
}

// P returns the number of ranks the topology covers.
func (t *Topology) P() int { return len(t.groupOf) }

// Groups returns the number of node groups.
func (t *Topology) Groups() int { return len(t.members) }

// GroupOf returns the group holding rank.
func (t *Topology) GroupOf(rank int) int { return t.groupOf[rank] }

// Members returns group g's ranks in ascending order. The slice is
// shared and must not be modified.
func (t *Topology) Members(g int) []int { return t.members[g] }

// SameGroup reports whether two ranks share a group — the predicate
// that prices a message as intra- or inter-group.
func (t *Topology) SameGroup(a, b int) bool { return t.groupOf[a] == t.groupOf[b] }

// GroupOfSlice returns a copy of the rank -> group assignment.
func (t *Topology) GroupOfSlice() []int { return append([]int(nil), t.groupOf...) }
