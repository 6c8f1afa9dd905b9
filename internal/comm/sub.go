package comm

import (
	"context"
	"fmt"
	"time"

	"stance/internal/vtime"
)

// Sub-communicators are the active-set mechanism of the elastic
// membership subsystem: a sub-world renumbers a subset of a world's
// ranks as 0..k-1 and translates every operation onto the parent
// endpoints, so the collectives, the masked arrival-order receives and
// the executor's compiled plans all work unchanged over the active set
// while parked ranks are simply absent. Construction is purely local —
// each member calls Sub with the identical member list and no
// communication happens — which is what makes epoch transitions cheap.

// Sub returns this rank's endpoint in the sub-world formed by the
// given ranks of c's world. members lists the participating ranks in
// the order that defines the sub-world numbering (members[i] becomes
// sub-rank i); it must contain c.Rank() exactly once and no
// duplicates. Every member must call Sub with the same list.
//
// The sub-endpoint shares the parent's transport, mailboxes and tag
// space: per-(source, tag) FIFO pairing spans epochs, messages count
// toward the parent world's Stats, and cancelling the context bound by
// World.SPMD on the nearest enclosing world (the parent's, or the
// sub-world's own when it is wrapped as a World and driven by its own
// SPMD) unblocks sub-world operations too. Closing a sub-endpoint is a
// no-op — the root world owns the transport. Like any Comm, a
// sub-endpoint is driven by one rank goroutine at a time.
//
// Sub-worlds over disjoint member sets may run concurrently: the
// member masks keep each sub-world's wildcard and masked receives from
// consuming a non-member's traffic, and disjointness keeps per-(src,
// tag) streams from interleaving across sub-worlds — the isolation the
// stanced job service multiplexes independent sessions with.
func (c *Comm) Sub(members []int) (*Comm, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("comm: sub-world with no members")
	}
	root := c.Root()
	toWorld := make([]int, len(members))
	fromWorld := make([]int, root.size)
	for i := range fromWorld {
		fromWorld[i] = -1
	}
	me := -1
	for i, r := range members {
		if r < 0 || r >= c.size {
			return nil, fmt.Errorf("comm: sub-world member %d of %d", r, c.size)
		}
		w := c.worldRankOf(r)
		if fromWorld[w] != -1 {
			return nil, fmt.Errorf("comm: rank %d appears twice in sub-world", r)
		}
		fromWorld[w] = i
		toWorld[i] = w
		if r == c.rank {
			me = i
		}
	}
	if me == -1 {
		return nil, fmt.Errorf("comm: rank %d is not a member of its own sub-world", c.rank)
	}
	mask := make([]bool, root.size)
	for _, w := range toWorld {
		mask[w] = true
	}
	st := &subTransport{
		parent:     root,
		toWorld:    toWorld,
		fromWorld:  fromWorld,
		memberMask: mask,
		scratch:    make([]bool, root.size),
	}
	sc, err := newComm(me, len(members), st)
	if err != nil {
		return nil, err
	}
	sc.root = root
	sc.from = c
	sc.worldRank = c.WorldRank()
	return sc, nil
}

// worldRankOf translates one of c's ranks into a root-world rank.
func (c *Comm) worldRankOf(rank int) int {
	if st, ok := c.tr.(*subTransport); ok {
		return st.toWorld[rank]
	}
	return rank
}

// subTransport translates a sub-world's operations onto the parent
// world's endpoint. It delegates through the parent *Comm* (not its
// raw transport), so sends count into the parent's statistics and
// observe the bound context exactly like direct parent traffic.
type subTransport struct {
	parent    *Comm
	toWorld   []int // sub rank -> world rank
	fromWorld []int // world rank -> sub rank, -1 for non-members

	// memberMask admits exactly the members in world numbering — the
	// receive-side filter that keeps a sub-world's RecvAny from
	// consuming a non-member's message destined for a later epoch.
	memberMask []bool
	// scratch is the reused world-sized mask for translated masked
	// receives, so the executor's arrival-order drain stays
	// allocation-free through a sub-world.
	scratch []bool
	// dstScratch is the reused destination list for multicasts.
	dstScratch []int
}

// Clock delegates to the parent world's clock, so timing on a
// sub-world is the same timeline as the world it was derived from.
func (t *subTransport) Clock() vtime.Clock { return t.parent.Clock() }

// TransportStats reports the root endpoint's wire counters: a
// sub-world multiplexes over its root's socket mesh (that is the whole
// point — one mesh per world, shared by every sub-world and grant), so
// the root's connections are where its bytes flow.
func (t *subTransport) TransportStats() (TransportStats, bool) {
	return t.parent.TransportStats()
}

func (t *subTransport) Send(dst, tag int, data []byte) error {
	return t.parent.Send(t.toWorld[dst], tag, data)
}

func (t *subTransport) Recv(ctx context.Context, src, tag int) ([]byte, error) {
	return t.parent.RecvContext(ctx, t.toWorld[src], tag)
}

// RecvTimeout delegates the timed receive to the parent endpoint, so
// failure detection works on sub-worlds.
func (t *subTransport) RecvTimeout(ctx context.Context, src, tag int, d time.Duration) ([]byte, error) {
	return t.parent.tr.RecvTimeout(ctx, t.toWorld[src], tag, d)
}

// RecvAnyOf admits only members, even under a nil mask: a non-member's
// message with the same tag (from an earlier or later epoch) stays
// queued for whichever sub-world it belongs to.
func (t *subTransport) RecvAnyOf(ctx context.Context, tag int, mask []bool) (int, []byte, error) {
	w, data, err := t.parent.tr.RecvAnyOf(ctx, tag, t.translateMask(mask))
	if err != nil {
		return 0, nil, err
	}
	return t.fromWorld[w], data, nil
}

// TakeAnyOf admits only members, as RecvAnyOf does, and hands the
// batch back in sub-world ranks, re-sorted ascending: member order need
// not follow world order.
func (t *subTransport) TakeAnyOf(ctx context.Context, tag int, mask []bool, await int, b *Batch) error {
	if err := t.parent.tr.TakeAnyOf(ctx, tag, t.translateMask(mask), await, b); err != nil {
		return err
	}
	for i, w := range b.Srcs {
		b.Srcs[i] = t.fromWorld[w]
	}
	// Insertion sort: the batch is a handful of peers, usually in order
	// already, and sorting in place allocates nothing.
	for i := 1; i < len(b.Srcs); i++ {
		for j := i; j > 0 && b.Srcs[j] < b.Srcs[j-1]; j-- {
			b.Srcs[j], b.Srcs[j-1] = b.Srcs[j-1], b.Srcs[j]
			b.Data[j], b.Data[j-1] = b.Data[j-1], b.Data[j]
		}
	}
	return nil
}

// translateMask maps a sub-world mask onto world numbering in the
// reused scratch mask; nil admits every member.
func (t *subTransport) translateMask(mask []bool) []bool {
	if mask == nil {
		return t.memberMask
	}
	for i := range t.scratch {
		t.scratch[i] = false
	}
	for i, on := range mask {
		if on && i < len(t.toWorld) {
			t.scratch[t.toWorld[i]] = true
		}
	}
	return t.scratch
}

// Multicast passes the parent's copy count through, so the sub-world
// and the parent count the same messages.
func (t *subTransport) Multicast(dsts []int, tag int, data []byte) (int, error) {
	t.dstScratch = t.dstScratch[:0]
	for _, d := range dsts {
		t.dstScratch = append(t.dstScratch, t.toWorld[d])
	}
	return t.parent.multicast(t.dstScratch, tag, data)
}

func (t *subTransport) box() *mailbox { return t.parent.tr.box() }

// Close is a no-op: the root world owns the transport and closes it.
func (t *subTransport) Close() error { return nil }
