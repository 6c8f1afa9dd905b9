package sched

import (
	"fmt"
	"slices"

	"stance/internal/comm"
	"stance/internal/partition"
	"stance/internal/translate"
)

// Message tags used by the Simple strategy's two request/reply rounds.
const (
	TagDerefReq = 0x101
	TagDerefRep = 0x102
	TagSchedReq = 0x103
)

// Refs is one processor's data-access pattern: for each local element
// u (0 <= u < len(Xadj)-1), Adj[Xadj[u]:Xadj[u+1]] are the global
// indices it reads — the indirection array of the paper's Figure 8
// loop, restricted to this processor's iterations.
type Refs struct {
	Xadj []int32
	Adj  []int64
}

// NLocal returns the number of local elements described.
func (r Refs) NLocal() int { return len(r.Xadj) - 1 }

// validate checks structural sanity against the layout.
func (r Refs) validate(layout *partition.Layout, rank int) error {
	if len(r.Xadj) == 0 {
		return fmt.Errorf("sched: empty Xadj")
	}
	if int64(r.NLocal()) != layout.Interval(rank).Len() {
		return fmt.Errorf("sched: refs describe %d elements, layout assigns %d",
			r.NLocal(), layout.Interval(rank).Len())
	}
	if int(r.Xadj[len(r.Xadj)-1]) != len(r.Adj) {
		return fmt.Errorf("sched: Xadj end %d != len(Adj) %d", r.Xadj[len(r.Xadj)-1], len(r.Adj))
	}
	n := layout.N()
	for _, g := range r.Adj {
		if g < 0 || g >= n {
			return fmt.Errorf("sched: global reference %d out of range [0,%d)", g, n)
		}
	}
	return nil
}

// BuildSort1 builds the communication schedule without communication
// (schedule_sort1, Section 3.2): duplicates are removed with a hash
// table, the symmetric-access property determines what each peer
// needs, and both the send list and the ghost (permutation) list are
// sorted afterwards so the two sides agree on message order.
//
// The symmetry assumption is the paper's: if this processor reads
// remote element v from a local element u, the owner of v will read u
// (true of any undirected computational graph, e.g. iterative FEM
// methods).
func BuildSort1(layout *partition.Layout, rank int, refs Refs) (*Schedule, error) {
	return buildSymmetric(layout, rank, refs, true)
}

// BuildSort2 is schedule_sort2: identical to BuildSort1 except local
// references are traversed in increasing order, so each send segment
// is generated already sorted and the send-list sort is skipped.
func BuildSort2(layout *partition.Layout, rank int, refs Refs) (*Schedule, error) {
	return buildSymmetric(layout, rank, refs, false)
}

func buildSymmetric(layout *partition.Layout, rank int, refs Refs, sortSends bool) (*Schedule, error) {
	if err := refs.validate(layout, rank); err != nil {
		return nil, err
	}
	p := layout.P()
	nLocal := refs.NLocal()
	iv := layout.Interval(rank)

	s := &Schedule{
		Rank:     rank,
		NProcs:   p,
		NLocal:   nLocal,
		SendIdx:  make([][]int32, p),
		RecvSlot: make([][]int32, p),
	}

	ghostSet := newHashSet(len(refs.Adj) / 4)
	var ghosts []int64
	// sendSeen[q] deduplicates (peer, local) pairs. For Sort2 the
	// traversal is in increasing local order, so a last-element check
	// replaces the hash probe on the send side.
	var sendSeen []*hashSet
	if sortSends {
		sendSeen = make([]*hashSet, p)
	}

	for u := 0; u < nLocal; u++ {
		for k := refs.Xadj[u]; k < refs.Xadj[u+1]; k++ {
			g := refs.Adj[k]
			if iv.Contains(g) {
				continue // local access, no communication
			}
			owner, _, err := layout.Locate(g)
			if err != nil {
				return nil, err
			}
			if ghostSet.Insert(g) {
				ghosts = append(ghosts, g)
			}
			// Symmetry: owner will need my element u.
			if sortSends {
				if sendSeen[owner] == nil {
					sendSeen[owner] = newHashSet(16)
				}
				if sendSeen[owner].Insert(int64(u)) {
					s.SendIdx[owner] = append(s.SendIdx[owner], int32(u))
				}
			} else {
				idx := s.SendIdx[owner]
				if len(idx) == 0 || idx[len(idx)-1] != int32(u) {
					s.SendIdx[owner] = append(s.SendIdx[owner], int32(u))
				}
			}
		}
	}

	// Sort the ghost list; owners are contiguous intervals, so this
	// groups by owner and orders by the owner's local reference.
	slices.Sort(ghosts)
	s.Ghosts = ghosts

	if sortSends {
		// schedule_sort1's extra pass: sort each send segment.
		for q := range s.SendIdx {
			slices.Sort(s.SendIdx[q])
		}
	}

	if err := fillRecvSlots(s, layout); err != nil {
		return nil, err
	}
	return s, nil
}

// fillRecvSlots assigns each sorted ghost to its owner's receive
// segment, slots in increasing global order.
func fillRecvSlots(s *Schedule, layout *partition.Layout) error {
	for slot, g := range s.Ghosts {
		owner, err := layout.Owner(g)
		if err != nil {
			return err
		}
		if owner == s.Rank {
			return fmt.Errorf("sched: ghost %d is locally owned", g)
		}
		s.RecvSlot[owner] = append(s.RecvSlot[owner], int32(slot))
	}
	return nil
}

// BuildSimple is the baseline strategy of Table 3: address translation
// through a block-distributed translation table, requiring one
// request/reply round to dereference and a second round to tell each
// owner what to send. Unlike Sort1/Sort2 it does not assume symmetric
// accesses. It is a collective: every rank must call it.
//
// The resulting schedule is identical to the sorting-based ones (the
// requests are issued in sorted ghost order), which TestStrategiesAgree
// verifies.
func BuildSimple(c *comm.Comm, layout *partition.Layout, refs Refs) (*Schedule, error) {
	rank := c.Rank()
	if err := refs.validate(layout, rank); err != nil {
		return nil, err
	}
	p := layout.P()
	if c.Size() != p {
		return nil, fmt.Errorf("sched: world size %d != layout processors %d", c.Size(), p)
	}
	nLocal := refs.NLocal()
	iv := layout.Interval(rank)

	s := &Schedule{
		Rank:     rank,
		NProcs:   p,
		NLocal:   nLocal,
		SendIdx:  make([][]int32, p),
		RecvSlot: make([][]int32, p),
	}

	// Deduplicate off-processor references with the hash table.
	ghostSet := newHashSet(len(refs.Adj) / 4)
	var ghosts []int64
	for _, g := range refs.Adj {
		if iv.Contains(g) {
			continue
		}
		if ghostSet.Insert(g) {
			ghosts = append(ghosts, g)
		}
	}
	slices.Sort(ghosts)
	s.Ghosts = ghosts

	// The distributed translation table: this rank's shard.
	dt, err := translate.NewDistributedTable(layout, p, rank)
	if err != nil {
		return nil, err
	}

	// Round 1: dereference every ghost through the owning table shard.
	byShard := make([][]int64, p)
	for _, g := range ghosts {
		shard, err := dt.ShardOf(g)
		if err != nil {
			return nil, err
		}
		byShard[shard] = append(byShard[shard], g)
	}
	for q := 0; q < p; q++ {
		if q == rank {
			continue
		}
		if err := c.Send(q, TagDerefReq, comm.I64sToBytes(byShard[q])); err != nil {
			return nil, err
		}
	}
	// Serve the other ranks' dereference requests from the local shard.
	for q := 0; q < p; q++ {
		if q == rank {
			continue
		}
		data, err := c.Recv(q, TagDerefReq)
		if err != nil {
			return nil, err
		}
		queries, err := comm.BytesToI64s(data)
		if err != nil {
			return nil, err
		}
		reply := make([]int32, 0, 2*len(queries))
		for _, g := range queries {
			e, err := dt.Lookup(g)
			if err != nil {
				return nil, err
			}
			reply = append(reply, e.Proc, e.Local)
		}
		if err := c.Send(q, TagDerefRep, comm.I32sToBytes(reply)); err != nil {
			return nil, err
		}
	}
	// Collect replies; also resolve the locally sharded queries.
	entries := make(map[int64]translate.Entry, len(ghosts))
	for _, g := range byShard[rank] {
		e, err := dt.Lookup(g)
		if err != nil {
			return nil, err
		}
		entries[g] = e
	}
	for q := 0; q < p; q++ {
		if q == rank {
			continue
		}
		data, err := c.Recv(q, TagDerefRep)
		if err != nil {
			return nil, err
		}
		pairs, err := comm.BytesToI32s(data)
		if err != nil {
			return nil, err
		}
		if len(pairs) != 2*len(byShard[q]) {
			return nil, fmt.Errorf("sched: shard %d answered %d entries for %d queries",
				q, len(pairs)/2, len(byShard[q]))
		}
		for i, g := range byShard[q] {
			entries[g] = translate.Entry{Proc: pairs[2*i], Local: pairs[2*i+1]}
		}
	}

	// Round 2: tell each owner which of its local elements we need, in
	// our (sorted) ghost order; what we receive back from each owner
	// fills our ghost segments in that same order.
	requests := make([][]int32, p)
	for slot, g := range ghosts {
		e := entries[g]
		if int(e.Proc) == rank {
			return nil, fmt.Errorf("sched: translation says ghost %d is local", g)
		}
		requests[e.Proc] = append(requests[e.Proc], e.Local)
		s.RecvSlot[e.Proc] = append(s.RecvSlot[e.Proc], int32(slot))
	}
	for q := 0; q < p; q++ {
		if q == rank {
			continue
		}
		if err := c.Send(q, TagSchedReq, comm.I32sToBytes(requests[q])); err != nil {
			return nil, err
		}
	}
	for q := 0; q < p; q++ {
		if q == rank {
			continue
		}
		data, err := c.Recv(q, TagSchedReq)
		if err != nil {
			return nil, err
		}
		wanted, err := comm.BytesToI32s(data)
		if err != nil {
			return nil, err
		}
		for _, local := range wanted {
			if local < 0 || int(local) >= nLocal {
				return nil, fmt.Errorf("sched: peer %d requested local index %d of %d", q, local, nLocal)
			}
		}
		s.SendIdx[q] = wanted
	}
	return s, nil
}
