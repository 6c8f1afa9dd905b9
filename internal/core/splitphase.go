package core

import (
	"fmt"
	"slices"
	"time"
)

// Asynchronous dataflow executor operations (the overlapped Phase C′
// data path, generalized to many ops in flight): Start posts every
// send of a schedule replay and returns an OpHandle immediately, the
// caller computes over the plan's interior elements while the messages
// are in flight, and handle.Wait() drains the arrivals and completes
// that operation. Independent handles — ops touching disjoint vector
// sets — progress concurrently: each handle owns its arrival mask,
// its parked-payload slots and a private wire tag, so several replay
// ops pipeline through the mailbox without stealing each other's
// messages, and the opportunistic poll-drain between sends services
// every live handle fairly. Everything runs on the same compiled plan,
// persistent wire buffers and masked arrival-order receives as the
// synchronous path (the transport copies payloads at Send, so the
// plan's per-peer wire buffers are shared safely across live ops), so
// the steady state stays allocation-free and the results are
// bit-for-bit identical — Exchange unpacks into disjoint ghost slots
// in arrival order, ScatterAdd applies contributions in ascending peer
// order regardless of arrival order.
//
// Dependency rule: two ops conflict iff they share a vector, in any
// kind combination — Exchange writes the ghost section, ScatterAdd
// reads it and writes the owned section, so any overlap is
// order-sensitive. A conflicting Start errors loudly naming the live
// op; it never queues silently. Synchronous executor calls follow the
// same rule (they run on fixed tags and plan-owned scratch, so only a
// shared vector conflicts); Bind, Remap, Rebind and SetGraph require
// zero live handles.
//
// Wire tags rotate through a fixed window: the k-th Start since the
// last schedule rebuild uses tagOpBase + k mod tagOpWindow. Starts are
// collective in SPMD program order, so every rank assigns the same tag
// to the same logical op and the per-(source, tag) FIFO pairing lines
// up; rebuild (Bind, Remap, Rebind, SetGraph — all of which require
// zero live handles) resets the counter, so a freshly admitted rank agrees with
// the survivors. A Start whose tag is still owned by a live handle
// errors: at most tagOpWindow ops can be in flight.

const (
	// tagOpBase is the first of the tagOpWindow rotating wire tags
	// handle-based ops send on (distinct from every fixed tag range:
	// inspector 0x1xx, runtime 0x2xx, loadbal 0x4xx, session 0x5xx,
	// elastic 0x6xx).
	tagOpBase   = 0x1000
	tagOpWindow = 64
)

// opKind is the replay direction of a handle-based op.
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

// startName returns the user-facing Start entry point for error
// messages as a constant (the zero-alloc path must not build strings).
func (k opKind) startName() string {
	if k == opScatter {
		return "ScatterAddStart"
	}
	return "ExchangeStart"
}

// OpHandle is one in-flight executor operation: it owns the arrival
// mask, the parked out-of-order payloads and the wire tag of a posted
// Exchange or ScatterAdd until Wait drains it. Handles are pooled on
// the runtime — Wait recycles them — so the steady state allocates
// nothing; a handle is invalid after Wait returns.
type OpHandle struct {
	rt   *Runtime
	kind opKind
	tag  int
	// vset names the vectors for dependency tracking; vecs is the
	// retained data view the drain unpacks into. Both are reused
	// backing arrays.
	vset []*Vector
	vecs [][]float64
	// pending marks the peers whose payload has not arrived; held
	// parks ScatterAdd payloads that completed out of order until the
	// deterministic ascending-peer apply pass in Wait.
	pending  []bool
	held     [][]byte
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
	return rt.start(opExchange, rt.vsetScratch)
}

// ExchangeAllStart is the coalesced ExchangeStart: all vectors' values
// for a peer share one in-flight message and one handle.
func (rt *Runtime) ExchangeAllStart(vecs ...*Vector) (*OpHandle, error) {
	if len(vecs) == 0 {
		return nil, fmt.Errorf("core: ExchangeAllStart with no vectors")
	}
	return rt.start(opExchange, vecs)
}

// ScatterAddStart posts the sends of a ScatterAdd (each ghost
// contribution travels home) and returns its handle. Until Wait runs,
// the caller must not modify the vector's owned elements or ghost
// section.
func (rt *Runtime) ScatterAddStart(v *Vector) (*OpHandle, error) {
	rt.vsetScratch = append(rt.vsetScratch[:0], v)
	return rt.start(opScatter, rt.vsetScratch)
}

// ScatterAddAllStart is the coalesced ScatterAddStart.
func (rt *Runtime) ScatterAddAllStart(vecs ...*Vector) (*OpHandle, error) {
	if len(vecs) == 0 {
		return nil, fmt.Errorf("core: ScatterAddAllStart with no vectors")
	}
	return rt.start(opScatter, vecs)
}

// Wait completes the operation: remaining arrivals are received in
// arrival order (Exchange payloads unpack into their disjoint ghost
// slots; ScatterAdd payloads park per peer, then apply in ascending
// peer order — the same deterministic accumulation as the synchronous
// path). Time spent blocked accumulates into the handle's Idle and
// the runtime's ExecStats.Idle. The handle is recycled and invalid
// afterwards.
func (h *OpHandle) Wait() error {
	if h == nil || h.done || h.rt == nil {
		return fmt.Errorf("core: Wait on a completed or invalid op handle")
	}
	rt := h.rt
	defer rt.retire(h)
	// Service every live op's arrivals without blocking first, then
	// charge only the genuinely blocking remainder of this one to the
	// idle counters.
	if err := rt.pollLive(); err != nil {
		return err
	}
	if h.nPending > 0 {
		t0 := rt.clock.Now()
		var err error
		switch h.kind {
		case opExchange:
			h.nPending, err = rt.drainGather(h.tag, h.pending, h.nPending, h.vecs, true)
		case opScatter:
			h.nPending, err = rt.drainScatter(h.tag, h.pending, h.nPending, h.held, true)
		}
		d := rt.clock.Now().Sub(t0)
		h.idle += d
		rt.execIdle += d
		if err != nil {
			return err
		}
	}
	if h.kind == opScatter {
		return rt.applyHeld(h.held, h.vecs)
	}
	return nil
}

// start posts an op's sends and registers the live handle: an Exchange
// packs owned values for the send peers and awaits the receive peers'
// ghosts; a ScatterAdd, its transpose, packs ghost contributions for the
// receive peers and parks the send peers' arrivals that complete early
// on the handle.
func (rt *Runtime) start(kind opKind, vs []*Vector) (*OpHandle, error) {
	h, err := rt.beginOp(kind, vs)
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
		h.nPending++
	}
	for _, q := range to {
		buf := pack(q, h.vecs)
		if err := rt.c.Send(q, h.tag, buf); err != nil {
			rt.retire(h)
			return nil, err
		}
		rt.execMsgs++
		rt.execBytes += int64(len(buf))
		// Opportunistic: between sends, service this op's arrivals and
		// every other live op's, so no handle starves while another is
		// being posted.
		if err := h.poll(); err != nil {
			rt.retire(h)
			return nil, err
		}
		if err := rt.pollLive(); err != nil {
			rt.retire(h)
			return nil, err
		}
	}
	rt.live = append(rt.live, h)
	return h, nil
}

// beginOp validates the op against every live handle (dependency rule
// and tag-window capacity), assigns the next rotating wire tag and
// readies a pooled handle.
func (rt *Runtime) beginOp(kind opKind, vs []*Vector) (*OpHandle, error) {
	if rt.Parked() {
		return nil, fmt.Errorf("core: split-phase operation on a parked runtime")
	}
	for _, v := range vs {
		if v.rt != rt {
			return nil, fmt.Errorf("core: vector belongs to a different runtime")
		}
	}
	if err := rt.checkLiveConflict(kind.startName(), vs); err != nil {
		return nil, err
	}
	tag := tagOpBase + rt.opSeq%tagOpWindow
	for _, o := range rt.live {
		if o.tag == tag {
			return nil, fmt.Errorf("core: too many ops in flight (the %d-tag window is exhausted); Wait on an earlier handle first", tagOpWindow)
		}
	}
	rt.opSeq++

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
	h.nPending = 0
	h.done = false
	h.idle = 0

	rt.execOps++
	rt.execOverlap++
	if len(rt.live) > 0 {
		// This op overlaps at least one other live op — the pipelined
		// regime the single-slot executor could not enter.
		rt.execPipelined++
	}
	return h, nil
}

// checkLiveConflict enforces the dependency rule for a new op (handle
// or synchronous) over the given vectors.
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

// poll takes this op's already-arrived payloads without blocking.
func (h *OpHandle) poll() error {
	if h.nPending == 0 {
		return nil
	}
	var err error
	switch h.kind {
	case opExchange:
		h.nPending, err = h.rt.drainGather(h.tag, h.pending, h.nPending, h.vecs, false)
	case opScatter:
		h.nPending, err = h.rt.drainScatter(h.tag, h.pending, h.nPending, h.held, false)
	}
	return err
}

// pollLive services every live handle's arrivals without blocking, in
// start order — the fair poll-drain shared across in-flight ops.
func (rt *Runtime) pollLive() error {
	for _, o := range rt.live {
		if err := o.poll(); err != nil {
			return err
		}
	}
	return nil
}

// retire closes a handle: removes it from the live set, releases any
// parked payloads (only present after an error cut the op short) and
// recycles it into the pool.
func (rt *Runtime) retire(h *OpHandle) {
	for i, o := range rt.live {
		if o == h {
			rt.live = append(rt.live[:i], rt.live[i+1:]...)
			break
		}
	}
	for q := range h.held {
		if h.held[q] != nil {
			rt.c.Release(h.held[q])
			h.held[q] = nil
		}
	}
	clear(h.vset)
	clear(h.vecs)
	h.vset, h.vecs = h.vset[:0], h.vecs[:0]
	h.done = true
	h.nPending = 0
	rt.opPool = append(rt.opPool, h)
}
