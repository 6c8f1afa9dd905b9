// Package comm is the message-passing substrate of the STANCE
// reproduction, standing in for the P4 environment the paper ran on
// (Section 5). It provides tagged point-to-point send/receive with
// per-(source, tag) FIFO ordering, emulated multicast (Section 3.6),
// and the collectives the runtime needs, over two interchangeable
// transports: an in-process transport whose configurable cost model
// reproduces shared-Ethernet behaviour, and a TCP transport that runs
// the same runtime over real sockets.
package comm

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"stance/internal/vtime"
)

// ErrClosed is returned by operations on a closed communicator.
var ErrClosed = errors.New("comm: communicator closed")

// ErrKilled is returned by operations on an endpoint whose process was
// crash-injected with KillEndpoint: the rank is gone, its sends vanish
// and its receives can never complete. The session driver treats a
// rank failing with ErrKilled under checkpointing as a crash-stop
// death — the rank goes silent and the survivors recover.
var ErrKilled = errors.New("comm: endpoint killed")

// Transport is the whole contract between a Comm and the medium under
// it: a send path plus a mailbox to receive from. Every endpoint — the
// built-in media and the sub-world translation layer alike — implements
// all of it, so nothing above the transport probes for capabilities.
type Transport interface {
	// Send delivers data to dst with the given tag. Data is copied
	// before Send returns; the caller may reuse the buffer.
	Send(dst, tag int, data []byte) error
	// Recv blocks until a message with the given source and tag
	// arrives, the endpoint closes, or ctx is cancelled (a nil or
	// Background ctx is uncancellable). Messages from the same source
	// with the same tag arrive in send order.
	Recv(ctx context.Context, src, tag int) ([]byte, error)
	// RecvAnyOf blocks until a message with the tag arrives from a
	// source the mask admits (nil mask admits all), completing in
	// arrival order — the executor's drain primitive: mark the peers
	// still missing and unpack whichever delivers first, while messages
	// from already-served peers (which belong to a later collective
	// operation) stay queued.
	RecvAnyOf(ctx context.Context, tag int, mask []bool) (src int, data []byte, err error)
	// TakeAnyOf is the batched RecvAnyOf: one receive takes the oldest
	// queued message of every admitted source, sources ascending, into
	// b. With await > 0 and nothing admissible queued it blocks, and no
	// delivery short of the await-th awaited source wakes it; with
	// await <= 0 it never blocks.
	TakeAnyOf(ctx context.Context, tag int, mask []bool, await int, b *Batch) error
	// RecvTimeout is Recv with a deadline on the transport's clock; it
	// fails with ErrTimeout when the deadline passes first, and with
	// ctx.Err() when ctx is cancelled first.
	RecvTimeout(ctx context.Context, src, tag int, d time.Duration) ([]byte, error)
	// Clock is the clock cost charges, delivery delays and deadlines run
	// on. The runtime derives every timing — solver phases, balance
	// checks, remap costs — from it, so a world opened on a simulated
	// clock (vtime.Sim) runs its entire adaptive protocol in
	// deterministic virtual time.
	Clock() vtime.Clock
	// TransportStats reports the endpoint's wire counters; ok=false
	// means the medium has no wire to count.
	TransportStats() (stats TransportStats, ok bool)
	// Close shuts the transport down; blocked receives fail.
	Close() error
	// box is the root-world mailbox the endpoint receives from, which
	// World.SPMD covers for the duration of a section and whose pool
	// Comm.Release returns payloads to.
	box() *mailbox
}

// Multicaster is implemented by transports that can deliver one
// message to many destinations for (approximately) the cost of one
// send — the Ethernet/ATM multicast capability of paper Section 3.6.
// It is optional because it is a real difference between media: a
// socket mesh has no multicast, and Comm.Multicast falls back to one
// send per destination there. Multicast returns the copies the medium
// carried — one per medium that multicasts, one per destination on a
// medium that does not — which is what Comm.Stats counts.
type Multicaster interface {
	Multicast(dsts []int, tag int, data []byte) (int, error)
}

// A missing method is a build error here, not a degraded path at run
// time.
var (
	_ Transport = (*inprocTransport)(nil)
	_ Transport = (*tcpTransport)(nil)
	_ Transport = (*hybridTransport)(nil)
	_ Transport = (*subTransport)(nil)
)

// Comm is one rank's endpoint in a world of size ranks.
type Comm struct {
	rank, size int
	tr         Transport

	// ctx governs blocking operations; World.SPMD binds the caller's
	// context here for the duration of the SPMD section, so cancelling
	// it tears the section down instead of deadlocking. nil means "not
	// bound": the endpoint falls back to the communicator it was
	// derived from (see boundCtx).
	ctx context.Context

	// root is the root world endpoint a sub-communicator was derived
	// from (nil for world endpoints); from is the communicator Sub was
	// called on — the immediate parent, which for a sub-of-sub differs
	// from root. Blocking operations observe the nearest bound context
	// up the from chain, so World.SPMD cancellation reaches operations
	// on sub-worlds created inside the section, and a sub-world wrapped
	// as its own World (WrapWorld) binds its own context without
	// touching the parent — which is what lets many sub-worlds of one
	// shared parent run concurrent SPMD sections with independent
	// cancellation (the stanced job service). worldRank is this
	// endpoint's rank in the root world.
	root      *Comm
	from      *Comm
	worldRank int

	// topo is the world's group topology (nil on flat worlds; set by
	// Open on world endpoints). Sub-communicators leave it nil and
	// resolve the root's through Topology().
	topo *Topology

	sentMsgs  atomic.Int64
	sentBytes atomic.Int64
	// interMsgs/interBytes count the sends whose destination lies in a
	// different group — the traffic on the slow inter-group link.
	interMsgs  atomic.Int64
	interBytes atomic.Int64
}

// newComm wraps a transport endpoint: the one step every transport
// factory and Sub share. Users obtain Comms from a World (see Open).
func newComm(rank, size int, tr Transport) (*Comm, error) {
	if size <= 0 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("comm: invalid rank %d of %d", rank, size)
	}
	return &Comm{rank: rank, size: size, tr: tr}, nil
}

// setContext binds ctx to the endpoint's blocking operations (nil
// unbinds). It must only be called while no operation is in flight on
// this endpoint (World.SPMD calls it before spawning the rank
// goroutines and after joining them).
func (c *Comm) setContext(ctx context.Context) {
	c.ctx = ctx
}

// boundCtx resolves the context governing blocking operations: the
// endpoint's own binding when World.SPMD bound one, otherwise the
// nearest binding up the derivation chain — a sub-communicator created
// inside an SPMD section inherits that section's context, while a
// sub-world driven by its own World.SPMD (WrapWorld) observes its own.
func (c *Comm) boundCtx() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	if c.from != nil {
		return c.from.boundCtx()
	}
	return context.Background()
}

// ctxErr is ctx.Err() read without taking the context's lock, which
// every rank of a section shares: a non-blocking receive on Done(),
// and Err() only once it is closed. A nil ctx is uncancellable.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Context returns the context governing the endpoint's blocking
// operations (context.Background unless bound by World.SPMD).
func (c *Comm) Context() context.Context { return c.boundCtx() }

// Clock returns the clock the endpoint's world runs on. All runtime
// timing (measurement, cost charging, timeouts) goes through it.
func (c *Comm) Clock() vtime.Clock { return c.tr.Clock() }

// Rank returns this endpoint's rank in [0, Size()).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.size }

// WorldRank returns this endpoint's rank in the root world it was
// derived from — the stable "workstation identity" that survives
// membership changes. For a world endpoint it equals Rank.
func (c *Comm) WorldRank() int {
	if c.root != nil {
		return c.worldRank
	}
	return c.rank
}

// WorldSize returns the size of the root world (Size for a world
// endpoint).
func (c *Comm) WorldSize() int {
	if c.root != nil {
		return c.root.size
	}
	return c.size
}

// Root returns the root world endpoint this sub-communicator was
// derived from, or the endpoint itself for world endpoints.
func (c *Comm) Root() *Comm {
	if c.root != nil {
		return c.root
	}
	return c
}

// Send delivers data to dst with the given tag. A cancelled bound
// context fails the send immediately, so send loops terminate promptly
// during teardown.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("comm: send to rank %d of %d", dst, c.size)
	}
	if err := ctxErr(c.boundCtx()); err != nil {
		return err
	}
	if err := c.tr.Send(dst, tag, data); err != nil {
		return err
	}
	c.sentMsgs.Add(1)
	c.sentBytes.Add(int64(len(data)))
	if c.interCrossing(dst) {
		c.interMsgs.Add(1)
		c.interBytes.Add(int64(len(data)))
	}
	return nil
}

// interCrossing reports whether a send from this endpoint to dst (in
// c's own numbering) crosses a group boundary. Sub-communicator ranks
// translate to world numbering first — the numbering the topology
// speaks.
func (c *Comm) interCrossing(dst int) bool {
	t := c.Root().topo
	if t == nil {
		return false
	}
	return !t.SameGroup(c.worldRankOf(c.rank), c.worldRankOf(dst))
}

// Recv blocks until a message from src with the given tag arrives, the
// endpoint closes, or the bound context is cancelled.
func (c *Comm) Recv(src, tag int) ([]byte, error) {
	return c.RecvContext(c.boundCtx(), src, tag)
}

// RecvContext is Recv under an explicit context: a cancelled ctx
// unblocks the receive with ctx.Err().
func (c *Comm) RecvContext(ctx context.Context, src, tag int) ([]byte, error) {
	if src < 0 || src >= c.size {
		return nil, fmt.Errorf("comm: recv from rank %d of %d", src, c.size)
	}
	return c.tr.Recv(ctx, src, tag)
}

// RecvTimeout is Recv with a deadline on the world's clock, for failure
// detection and tests; it fails with ErrTimeout when the deadline passes
// without a matching message, and with the bound context's error when
// that is cancelled first.
func (c *Comm) RecvTimeout(src, tag int, d time.Duration) ([]byte, error) {
	return c.tr.RecvTimeout(c.boundCtx(), src, tag, d)
}

// RecvAny blocks until a message with the given tag arrives from any
// source, the endpoint closes, or the bound context is cancelled.
func (c *Comm) RecvAny(tag int) (int, []byte, error) {
	return c.tr.RecvAnyOf(c.boundCtx(), tag, nil)
}

// RecvAnyOf blocks until a message with the tag arrives from a source
// the mask admits (mask[src] true; nil admits every source) — the
// arrival-order receive the executor drains with.
func (c *Comm) RecvAnyOf(tag int, mask []bool) (int, []byte, error) {
	return c.tr.RecvAnyOf(c.boundCtx(), tag, mask)
}

// TakeAnyOf is the batched RecvAnyOf the executor drains with: one
// receive takes the oldest queued message on tag of every source the
// mask admits (nil admits every source), at most one per source,
// sources ascending, into b. With await > 0 and nothing admissible
// queued it blocks until await admitted sources — the ones the caller
// still waits on — have a message queued, or the endpoint closes, the
// bound context is cancelled or an admitted source is declared dead;
// with await <= 0 it never blocks, and an empty batch means nothing
// admissible has arrived. Messages from sources the mask leaves out
// stay queued, as for RecvAnyOf.
func (c *Comm) TakeAnyOf(tag int, mask []bool, await int, b *Batch) error {
	return c.tr.TakeAnyOf(c.boundCtx(), tag, mask, await, b)
}

// Release hands payloads returned by receives back to the endpoint's
// mailbox pool for reuse, all of them in one lock round; a batch goes
// back as Release(b.Data...). The buffers must not be used afterwards.
// Every endpoint, a sub-world's included, receives from its root
// mailbox, so that is where the buffers return.
func (c *Comm) Release(bufs ...[]byte) { c.tr.box().Release(bufs...) }

// RecvInto receives from src into the caller's buffer, returning the
// payload length; it fails (consuming the message) if the payload does
// not fit. The transport's buffer is recycled, so a receive into a
// persistent buffer allocates nothing in the steady state.
func (c *Comm) RecvInto(src, tag int, buf []byte) (int, error) {
	data, err := c.Recv(src, tag)
	if err != nil {
		return 0, err
	}
	if len(data) > len(buf) {
		c.Release(data)
		return 0, fmt.Errorf("comm: %d-byte payload exceeds %d-byte receive buffer", len(data), len(buf))
	}
	n := copy(buf, data)
	c.Release(data)
	return n, nil
}

// Multicast sends data to every rank in dsts. If the transport
// supports hardware-style multicast the message is charged once per
// medium that multicasts; otherwise it falls back to point-to-point
// sends. Stats counts the copies the medium carried.
func (c *Comm) Multicast(dsts []int, tag int, data []byte) error {
	_, err := c.multicast(dsts, tag, data)
	return err
}

// multicast is Multicast returning the copies it counted.
func (c *Comm) multicast(dsts []int, tag int, data []byte) (int, error) {
	for _, d := range dsts {
		if d < 0 || d >= c.size {
			return 0, fmt.Errorf("comm: multicast to rank %d of %d", d, c.size)
		}
	}
	if err := ctxErr(c.boundCtx()); err != nil {
		return 0, err
	}
	m, ok := c.tr.(Multicaster)
	if !ok {
		for _, d := range dsts {
			if err := c.Send(d, tag, data); err != nil {
				return 0, err
			}
		}
		return len(dsts), nil
	}
	copies, err := m.Multicast(dsts, tag, data)
	if err != nil {
		return 0, err
	}
	c.sentMsgs.Add(int64(copies))
	c.sentBytes.Add(int64(copies) * int64(len(data)))
	if c.Root().topo != nil {
		// Each cross-group destination is one crossing of the slow
		// link, whatever the medium charged.
		inter := int64(0)
		for _, d := range dsts {
			if c.interCrossing(d) {
				inter++
			}
		}
		if inter > 0 {
			c.interMsgs.Add(inter)
			c.interBytes.Add(inter * int64(len(data)))
		}
	}
	return copies, nil
}

// Stats returns the number of messages and payload bytes this rank
// has sent.
func (c *Comm) Stats() (msgs, bytes int64) {
	return c.sentMsgs.Load(), c.sentBytes.Load()
}

// InterStats returns the messages and payload bytes this rank has sent
// across group boundaries — the slow-link traffic of a two-level
// world. Always zero on a flat world. Like Stats, a sub-communicator
// counts its own traffic (its delegated sends also count into the root
// endpoint, exactly as they do for Stats).
func (c *Comm) InterStats() (msgs, bytes int64) {
	return c.interMsgs.Load(), c.interBytes.Load()
}

// Topology returns the group topology of the world this endpoint
// belongs to (the root world for a sub-communicator), or nil on a flat
// world.
func (c *Comm) Topology() *Topology { return c.Root().topo }

// WorldRankOf translates one of c's ranks into a root-world rank — the
// numbering a Topology speaks. For a world endpoint it is the
// identity; for a (possibly nested) sub-communicator it resolves the
// member's stable workstation identity.
func (c *Comm) WorldRankOf(rank int) int {
	if rank < 0 || rank >= c.size {
		panic(fmt.Sprintf("comm: rank %d of %d", rank, c.size))
	}
	return c.worldRankOf(rank)
}

// Close shuts down the endpoint's transport.
func (c *Comm) Close() error { return c.tr.Close() }
