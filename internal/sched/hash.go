// Package sched implements the inspector of paper Section 3.2: it
// removes duplicate off-processor references with a hash table and
// builds the communication schedules the executor replays every
// iteration. Three builders are provided, matching the paper's
// Table 3 comparison. The runtime builds with Sort2 alone; Sort1 and
// Simple produce the same schedule and are reached only from
// internal/bench's Table 3 and the tests:
//
//   - Sort1 (schedule_sort1): exploits access symmetry to build the
//     schedule without any communication; send and receive segments
//     are collected in traversal order and then sorted.
//   - Sort2 (schedule_sort2): like Sort1, but local references are
//     traversed in increasing order so the segments are generated
//     pre-sorted and the sort is skipped.
//   - Simple: the baseline that dereferences through a distributed
//     translation table, costing two request/reply message rounds.
package sched

// hashSet is a purpose-built open-addressing hash set for int64 keys,
// the paper's "hash table" for duplicate removal. It exists alongside
// Go's built-in map as a measured ablation (see BenchmarkDedup): the
// inspector runs once per remap, and on meshes with hundreds of
// thousands of references the flat probe table is measurably cheaper.
type hashSet struct {
	slots []int64
	used  []bool
	n     int
	mask  uint64
}

// newHashSet sizes the table for an expected number of keys.
func newHashSet(expect int) *hashSet {
	size := 16
	for size < expect*2 {
		size *= 2
	}
	return &hashSet{
		slots: make([]int64, size),
		used:  make([]bool, size),
		mask:  uint64(size - 1),
	}
}

// fibonacci hashing spreads consecutive keys (common after a locality
// transform) across the table.
func hash64(k int64) uint64 {
	return uint64(k) * 0x9E3779B97F4A7C15
}

// Insert adds k and reports whether it was newly added.
func (h *hashSet) Insert(k int64) bool {
	if 2*(h.n+1) > len(h.slots) {
		h.grow()
	}
	i := hash64(k) & h.mask
	for h.used[i] {
		if h.slots[i] == k {
			return false
		}
		i = (i + 1) & h.mask
	}
	h.used[i] = true
	h.slots[i] = k
	h.n++
	return true
}

// Contains reports whether k is in the set.
func (h *hashSet) Contains(k int64) bool {
	i := hash64(k) & h.mask
	for h.used[i] {
		if h.slots[i] == k {
			return true
		}
		i = (i + 1) & h.mask
	}
	return false
}

// Len returns the number of distinct keys inserted.
func (h *hashSet) Len() int { return h.n }

func (h *hashSet) grow() {
	old := *h
	h.slots = make([]int64, 2*len(old.slots))
	h.used = make([]bool, 2*len(old.used))
	h.mask = uint64(len(h.slots) - 1)
	h.n = 0
	for i, u := range old.used {
		if u {
			h.Insert(old.slots[i])
		}
	}
}

// DedupHash returns the distinct values of refs in first-seen order,
// using the open-addressing hash set.
func DedupHash(refs []int64) []int64 {
	h := newHashSet(len(refs))
	out := make([]int64, 0, len(refs))
	for _, r := range refs {
		if h.Insert(r) {
			out = append(out, r)
		}
	}
	return out
}

// DedupMap is the built-in-map reference implementation of DedupHash.
func DedupMap(refs []int64) []int64 {
	seen := make(map[int64]struct{}, len(refs))
	out := make([]int64, 0, len(refs))
	for _, r := range refs {
		if _, ok := seen[r]; ok {
			continue
		}
		seen[r] = struct{}{}
		out = append(out, r)
	}
	return out
}
