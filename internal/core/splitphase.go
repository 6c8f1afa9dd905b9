package core

import (
	"fmt"
	"slices"
	"time"

	"stance/internal/comm"
)

// The executor's one data path (paper Phase C: gather and scatter, each
// a replay of the inspector's schedule). Every replay op — Exchange,
// ScatterAdd, their coalesced forms and ExchangeStart — runs the same
// handle lifecycle: beginOp readies a pooled OpHandle, start packs and
// posts every send, and Wait drains the arrivals in batches — each
// receive takes every awaited payload already in the mailbox, and a
// receive that finds none parks until the last of them has arrived —
// applies ScatterAdd contributions in ascending peer order and retires
// the handle. ExchangeStart returns the handle between the two, so the
// caller computes over the plan's interior elements while the messages
// are in flight; a synchronous entry point is run, a start followed at
// once by its Wait. All per-op state — arrival mask, parked payloads,
// vector view, wire tag — lives on the handle; the plan holds compiled
// tables and wire buffers only (the transport copies payloads at Send,
// so live ops share them safely).
// The steady state allocates nothing, and the results are bit-for-bit
// the same whichever way an op is entered: Exchange unpacks into
// disjoint ghost slots in arrival order, ScatterAdd applies in peer
// order regardless of arrival order.
//
// Dependency rule: two ops conflict iff they share a vector, in any
// kind combination — Exchange writes the ghost section, ScatterAdd
// reads it and writes the owned section, so any overlap is
// order-sensitive. A conflicting op, synchronous or Start, errors
// loudly naming the live op; it never queues silently. Bind, Remap and
// Rebind require zero live handles.
//
// Wire tags: a synchronous op sends on its kind's fixed tag
// (tagExchange, tagScatter) and is never live while user code runs, so
// it needs no slot. Start handles rotate through a fixed window: the
// k-th Start since the last schedule rebuild uses tagOpBase + k mod
// tagOpWindow. Starts are collective in SPMD program order, so every
// rank assigns the same tag to the same logical op and the
// per-(source, tag) FIFO pairing lines up; rebuild (Bind, Remap and
// Rebind, all of which require zero live handles) resets
// the counter, so a freshly admitted rank agrees with the survivors. A
// Start whose tag is still owned by a live handle errors: at most
// tagOpWindow Starts can be in flight.

const (
	// tagOpBase is the first of the tagOpWindow rotating wire tags
	// Start handles send on (distinct from every fixed tag range:
	// inspector 0x1xx, runtime 0x2xx, session 0x5xx,
	// elastic 0x6xx).
	tagOpBase   = 0x1000
	tagOpWindow = 64
)

// opKind is the replay direction of an executor op.
type opKind uint8

const (
	opExchange opKind = iota + 1
	opScatter
)

func (k opKind) String() string {
	switch k {
	case opExchange:
		return "Exchange"
	case opScatter:
		return "ScatterAdd"
	}
	return "none"
}

// name returns the entry point that issued an op of this kind, for
// error messages, as a constant (the zero-alloc path must not build
// strings). ExchangeStart is the one split entry point.
func (k opKind) name(split bool) string {
	if split {
		return "ExchangeStart"
	}
	return k.String()
}

// OpHandle is one executor operation between its start and its
// completion: it owns the arrival mask, the receive batch, the parked
// out-of-order payloads and the wire tag of a posted Exchange or
// ScatterAdd. Handles are pooled on the runtime — completion recycles
// them — so the steady state allocates nothing; a handle is invalid
// after Wait returns.
type OpHandle struct {
	rt   *Runtime
	kind opKind
	tag  int
	// split records that a Start entry point created the handle: it
	// holds a window tag, is live until Wait, and counts in Overlapped,
	// Pipelined and Idle. A synchronous op's handle does none of these.
	split bool
	// vset names the vectors for dependency tracking; vecs is the
	// retained data view the drain unpacks into. Both are reused
	// backing arrays.
	vset []*Vector
	vecs [][]float64
	// pending marks the peers whose payload has not arrived; held
	// parks ScatterAdd payloads that completed out of order until the
	// deterministic ascending-peer apply pass; batch is the reused
	// receive batch the drain takes arrivals into.
	pending  []bool
	held     [][]byte
	batch    comm.Batch
	nPending int
	done     bool
	idle     time.Duration
}

// Done reports whether the handle has been completed by Wait.
func (h *OpHandle) Done() bool { return h == nil || h.done }

// Idle returns how long this op's Wait spent blocked on arrivals —
// the latency the compute issued between Start and Wait did not hide.
// Valid once Wait returns.
func (h *OpHandle) Idle() time.Duration { return h.idle }

// LiveOps returns the number of handle-based operations currently in
// flight on the runtime.
func (rt *Runtime) LiveOps() int { return len(rt.live) }

// ExchangeStart posts the sends of an Exchange and returns its handle
// without waiting for the ghosts to arrive. The caller may compute
// over the plan's InteriorRows() elements (which read no ghost value),
// then must Wait on the handle before touching any ghost. Further
// Starts on other vectors may be issued while this one is in flight.
func (rt *Runtime) ExchangeStart(v *Vector) (*OpHandle, error) {
	rt.vsetScratch = append(rt.vsetScratch[:0], v)
	return rt.start(opExchange, rt.vsetScratch, true)
}

// Wait completes the operation: every live op's arrivals are serviced
// without blocking, then this op's remaining arrivals are received in
// arrival-order batches (Exchange payloads unpack into their disjoint
// ghost slots; ScatterAdd payloads park per peer, then apply in ascending
// peer order — the same deterministic accumulation as the synchronous
// entry points, which run this completion themselves). For a Start
// handle, the time spent blocked accumulates into the handle's Idle
// and the runtime's ExecStats.Idle. The handle is recycled and invalid
// afterwards.
func (h *OpHandle) Wait() error {
	if h == nil || h.done || h.rt == nil {
		return fmt.Errorf("core: Wait on a completed or invalid op handle")
	}
	rt := h.rt
	defer rt.retire(h)
	if err := rt.pollLive(); err != nil {
		return err
	}
	if h.nPending > 0 {
		var t0 time.Time
		if h.split {
			t0 = rt.clock.Now()
		}
		err := h.drain(true)
		if h.split {
			d := rt.clock.Now().Sub(t0)
			h.idle += d
			rt.execIdle += d
		}
		if err != nil {
			return err
		}
	}
	if h.kind == opScatter {
		return rt.applyHeld(h.held, h.vecs)
	}
	return nil
}

// run is a synchronous op: its start followed at once by its Wait.
func (rt *Runtime) run(kind opKind, vs []*Vector) error {
	h, err := rt.start(kind, vs, false)
	if err != nil {
		return err
	}
	return h.Wait()
}

// start posts an op's sends back to back and, for a Start entry point,
// registers the live handle: an Exchange packs owned values for the send
// peers and awaits the receive peers' ghosts; a ScatterAdd, its
// transpose, packs ghost contributions for the receive peers and awaits
// the send peers' arrivals. Nothing is received here: whatever arrives
// meanwhile waits in the mailbox for Wait's first batch.
func (rt *Runtime) start(kind opKind, vs []*Vector, split bool) (*OpHandle, error) {
	h, err := rt.beginOp(kind, vs, split)
	if err != nil {
		return nil, err
	}
	p := rt.plan
	from, to, pack := p.RecvPeers(), p.SendPeers(), p.PackLocal
	if kind == opScatter {
		from, to, pack = to, from, p.PackGhost
	}
	for _, q := range from {
		h.pending[q] = true
	}
	h.nPending = len(from)
	// Room for every awaited payload in one batch, so a pooled handle
	// never grows its batch in the steady state, whatever the arrival
	// pattern.
	h.batch.Srcs = slices.Grow(h.batch.Srcs[:0], len(from))
	h.batch.Data = slices.Grow(h.batch.Data[:0], len(from))
	for _, q := range to {
		buf := pack(q, h.vecs)
		if err := rt.c.Send(q, h.tag, buf); err != nil {
			rt.retire(h)
			return nil, err
		}
		rt.execMsgs++
		rt.execBytes += int64(len(buf))
	}
	if split {
		rt.live = append(rt.live, h)
	}
	return h, nil
}

// beginOp validates the op against every live handle (dependency rule
// and, for a Start, tag-window capacity), assigns its wire tag and
// readies a pooled handle.
func (rt *Runtime) beginOp(kind opKind, vs []*Vector, split bool) (*OpHandle, error) {
	if rt.Parked() {
		return nil, fmt.Errorf("core: %s on a parked runtime", kind.name(split))
	}
	for _, v := range vs {
		if v.rt != rt {
			return nil, fmt.Errorf("core: vector belongs to a different runtime")
		}
	}
	if err := rt.checkLiveConflict(kind.name(split), vs); err != nil {
		return nil, err
	}
	tag := tagExchange
	if kind == opScatter {
		tag = tagScatter
	}
	if split {
		tag = tagOpBase + rt.opSeq%tagOpWindow
		for _, o := range rt.live {
			if o.tag == tag {
				return nil, fmt.Errorf("core: too many ops in flight (the %d-tag window is exhausted); Wait on an earlier handle first", tagOpWindow)
			}
		}
		rt.opSeq++
	}

	var h *OpHandle
	if n := len(rt.opPool); n > 0 {
		h = rt.opPool[n-1]
		rt.opPool = rt.opPool[:n-1]
	} else {
		h = &OpHandle{}
	}
	np := rt.plan.NProcs()
	h.pending = slices.Grow(h.pending[:0], np)[:np]
	clear(h.pending)
	h.held = slices.Grow(h.held[:0], np)[:np] // retire left it nil
	for _, v := range vs {
		h.vset = append(h.vset, v)
		h.vecs = append(h.vecs, v.Data)
	}
	h.rt = rt
	h.kind = kind
	h.tag = tag
	h.split = split
	h.nPending = 0
	h.done = false
	h.idle = 0

	rt.execOps++
	if split {
		rt.execOverlap++
		if len(rt.live) > 0 {
			// This op overlaps at least one other live op — the
			// pipelined regime the single-slot executor could not enter.
			rt.execPipelined++
		}
	}
	return h, nil
}

// checkLiveConflict enforces the dependency rule for a new op over the
// given vectors.
func (rt *Runtime) checkLiveConflict(opName string, vs []*Vector) error {
	for _, o := range rt.live {
		for _, ov := range o.vset {
			for _, v := range vs {
				if ov == v {
					return fmt.Errorf("core: %s conflicts with a live %s op on the same vector; Wait on its handle first", opName, o.kind)
				}
			}
		}
	}
	return nil
}

// drain takes this op's payloads a batch at a time: with block set until
// none is pending, otherwise only those already in the mailbox. Each
// batch is every pending peer's payload that has arrived; a blocking
// receive that finds none parks until all nPending have arrived (or the
// mailbox wakes it for another reason), so a rank parks about once per
// op. Exchange payloads unpack straight into their ghost slots (safe in
// any order: the slots are disjoint assignments) and go back to the pool
// in one Release; ScatterAdd payloads park in held, indexed by source,
// until the ascending-peer apply.
func (h *OpHandle) drain(block bool) error {
	rt, b := h.rt, &h.batch
	for h.nPending > 0 {
		await := 0
		if block {
			await = h.nPending
		}
		if err := rt.c.TakeAnyOf(h.tag, h.pending, await, b); err != nil {
			return err
		}
		if len(b.Srcs) == 0 {
			return nil
		}
		for _, src := range b.Srcs {
			h.pending[src] = false
		}
		h.nPending -= len(b.Srcs)
		if h.kind == opScatter {
			for i, src := range b.Srcs {
				h.held[src] = b.Data[i]
			}
			continue
		}
		var err error
		for i, src := range b.Srcs {
			if err = rt.plan.UnpackGhost(src, b.Data[i], h.vecs); err != nil {
				break
			}
		}
		rt.c.Release(b.Data...)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// applyHeld adds the parked ScatterAdd payloads into the owned elements
// in ascending peer order and hands them back to the transport. Floating
// point addition is not associative and several peers may contribute
// to one owned element, so the apply order must not follow arrivals.
func (rt *Runtime) applyHeld(held [][]byte, vecs [][]float64) error {
	p := rt.plan
	for _, q := range p.SendPeers() {
		data := held[q]
		if data == nil {
			continue
		}
		held[q] = nil
		err := p.AddLocal(q, data, vecs)
		rt.c.Release(data)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// pollLive services every live handle's arrivals without blocking, in
// start order — the fair poll-drain shared across in-flight ops.
func (rt *Runtime) pollLive() error {
	for _, o := range rt.live {
		if err := o.drain(false); err != nil {
			return err
		}
	}
	return nil
}

// retire closes a handle: removes it from the live set, releases any
// parked payloads (only a ScatterAdd parks them, from its send peers,
// and only an error leaves them behind) and recycles it into the pool.
func (rt *Runtime) retire(h *OpHandle) {
	for i, o := range rt.live {
		if o == h {
			rt.live = append(rt.live[:i], rt.live[i+1:]...)
			break
		}
	}
	if h.kind == opScatter {
		for _, q := range rt.plan.SendPeers() {
			if h.held[q] != nil {
				rt.c.Release(h.held[q])
				h.held[q] = nil
			}
		}
	}
	clear(h.vset)
	clear(h.vecs)
	h.vset, h.vecs = h.vset[:0], h.vecs[:0]
	h.done = true
	h.nPending = 0
	rt.opPool = append(rt.opPool, h)
}
