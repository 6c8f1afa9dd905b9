package comm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"stance/internal/vtime"
)

// msgKey matches messages by (source, tag), the P4-style matching rule.
type msgKey struct {
	src, tag int
}

// msgq is one (source, tag) stream's FIFO. It is a slice drained by a
// head index instead of re-slicing, so the backing array is reused once
// the queue empties: a steady-state deliver/recv ping-pong touches no
// allocator at all.
type msgq struct {
	frames [][]byte
	head   int
}

func (q *msgq) empty() bool { return q.head == len(q.frames) }

func (q *msgq) push(b []byte) { q.frames = append(q.frames, b) }

func (q *msgq) pop() []byte {
	b := q.frames[q.head]
	q.frames[q.head] = nil // drop the reference for the pool/GC
	q.head++
	if q.head == len(q.frames) {
		q.frames = q.frames[:0]
		q.head = 0
	}
	return b
}

// maxPooled bounds the number of idle payload buffers a mailbox keeps
// for reuse; beyond that, returned buffers fall to the GC.
const maxPooled = 64

// inflight is one message in modeled flight: parked by deliver,
// invisible to receivers until a clock event lands it.
type inflight struct {
	tag int
	buf []byte
}

// mailbox is a rank's incoming-message store and the receive half of
// every transport endpoint: per-(src, tag) FIFO queues with blocking
// receive, written once here and embedded by the endpoints, which add
// only their send path. It also owns the rank's receive-buffer pool:
// delivery paths take payload buffers from getBuf and receivers hand
// them back through Release, so the steady-state executor data path
// recycles buffers instead of allocating per message.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[msgKey]*msgq
	free   [][]byte
	closed bool
	// flights holds, per source, the messages still in modeled flight
	// (Model.Delay), oldest first; see deliver.
	flights map[int][]inflight
	// closeErr is what pending and future receives fail with once the
	// mailbox is closed: ErrClosed on a normal shutdown, ErrKilled when
	// the endpoint was crash-injected.
	closeErr error

	// dead marks sources the transport's liveness layer has declared
	// failed (missed heartbeats). Queued messages from a dead source
	// stay receivable — they were delivered before the failure — but a
	// receive that would block on a dead source fails with ErrPeerDead
	// instead, turning transport liveness into an immediate failure
	// signal for the checkpoint gate. Grown lazily; nil when the
	// transport has no liveness layer.
	dead []bool

	// clock supplies deadlines; sim is non-nil when it is a simulated
	// clock, in which case blocked receivers take part in the clock's
	// waiter accounting: simWaiting counts the waiters currently marked
	// blocked in the clock. Every wakeup path (deliver, close, cancel,
	// deadline) goes through wakeLocked, which retires those marks
	// atomically with the broadcast — the clock must see the woken
	// waiters as runnable before it can advance again.
	clock      vtime.Clock
	sim        *vtime.Sim
	simWaiting int
	wakeGen    uint64
}

func newMailbox(clock vtime.Clock) *mailbox {
	if clock == nil {
		clock = vtime.Real{}
	}
	m := &mailbox{queues: make(map[msgKey]*msgq), flights: make(map[int][]inflight),
		clock: clock, sim: vtime.AsSim(clock)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// waitLocked parks the caller on the mailbox condition. On a simulated
// clock the waiter is marked blocked so the clock can auto-advance; the
// mark is retired either by the waker (wakeLocked) or, if the waker got
// there first, not at all — simWaiting tracks exactly the marks still
// outstanding.
func (m *mailbox) waitLocked() {
	if m.sim == nil {
		m.cond.Wait()
		return
	}
	m.simWaiting++
	gen := m.wakeGen
	m.sim.Block()
	m.cond.Wait()
	// A wakeLocked since we parked has already retired every
	// outstanding mark (including ours, and possibly before we actually
	// woke); only a wake that bypassed wakeLocked — which none do —
	// would leave our own mark to retire here.
	if m.wakeGen == gen {
		m.simWaiting--
		m.sim.Unblock(1)
	}
}

// wakeLocked wakes every waiter, first handing their runnable tokens
// back to the simulated clock (no-op on the real clock). Every path
// that can satisfy or abort a wait must use it instead of a bare
// Broadcast.
func (m *mailbox) wakeLocked() {
	if m.sim != nil && m.simWaiting > 0 {
		m.sim.Unblock(m.simWaiting)
		m.simWaiting = 0
	}
	m.wakeGen++
	m.cond.Broadcast()
}

// getBuf returns a payload buffer of length n, reusing a pooled one
// when possible. One pool serves all message sizes on a rank, so the
// newest-first scan skips entries too small for this request instead
// of discarding them — small control-frame buffers stay pooled for
// small requests, and in the homogeneous steady state the newest entry
// fits immediately.
func (m *mailbox) getBuf(n int) []byte {
	m.mu.Lock()
	for i := len(m.free) - 1; i >= 0; i-- {
		if cap(m.free[i]) < n {
			continue
		}
		b := m.free[i]
		last := len(m.free) - 1
		m.free[i] = m.free[last]
		m.free[last] = nil
		m.free = m.free[:last]
		m.mu.Unlock()
		return b[:n]
	}
	m.mu.Unlock()
	return make([]byte, n)
}

// Release returns a delivered payload buffer to the pool. The caller
// must not touch the buffer afterwards.
func (m *mailbox) Release(b []byte) {
	if cap(b) == 0 {
		return
	}
	m.mu.Lock()
	if len(m.free) < maxPooled {
		m.free = append(m.free, b[:0])
	}
	m.mu.Unlock()
}

// markPeerDead records a transport-level death of src and wakes every
// waiter so receives blocked on src can fail with ErrPeerDead.
func (m *mailbox) markPeerDead(src int) {
	m.mu.Lock()
	if src >= len(m.dead) {
		grown := make([]bool, src+1)
		copy(grown, m.dead)
		m.dead = grown
	}
	m.dead[src] = true
	m.wakeLocked()
	m.mu.Unlock()
}

// deadLocked reports whether src has been declared dead.
func (m *mailbox) deadLocked(src int) bool {
	return src >= 0 && src < len(m.dead) && m.dead[src]
}

// allDeadLocked reports whether every source the mask admits is dead —
// the condition under which a masked receive can never complete. A nil
// mask admits every source including self, which is never marked, so
// it always reports false.
func (m *mailbox) allDeadLocked(mask []bool) bool {
	if mask == nil {
		return false
	}
	admitted := false
	for src, on := range mask {
		if !on {
			continue
		}
		admitted = true
		if !m.deadLocked(src) {
			return false
		}
	}
	return admitted
}

// closedErrLocked is the error receives fail with after close.
func (m *mailbox) closedErrLocked() error {
	if m.closeErr != nil {
		return m.closeErr
	}
	return ErrClosed
}

// deliver hands the mailbox a message that becomes receivable after the
// medium's one-way delivery delay (Model.Delay; zero means at once). The
// payload must come from this mailbox's getBuf and is the mailbox's from
// here on, accepted or not: a closed mailbox refuses it with ErrClosed
// and lets it fall to the GC (its pool is dead too). It is the one
// delivery path of every transport on either clock: a delayed payload
// parks in its source's in-flight FIFO and a clock event lands it,
// without holding the sender. Each event lands the source's oldest
// in-flight message rather than "its own", so per-(src, tag) FIFO holds
// whatever order the real clock runs timer goroutines in; one (src, dst)
// pair has one delay, so the oldest is never landed before its own
// instant. A simulated clock fires events in scheduling order, which
// makes the two readings coincide.
func (m *mailbox) deliver(src, tag int, data []byte, delay time.Duration) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if delay <= 0 {
		m.enqueueLocked(src, tag, data)
		m.mu.Unlock()
		return nil
	}
	m.flights[src] = append(m.flights[src], inflight{tag, data})
	m.mu.Unlock()
	m.clock.AfterFunc(delay, func() { m.land(src) })
	return nil
}

// enqueueLocked makes a message receivable and wakes the waiters.
func (m *mailbox) enqueueLocked(src, tag int, data []byte) {
	k := msgKey{src, tag}
	q := m.queues[k]
	if q == nil {
		q = &msgq{}
		m.queues[k] = q
	}
	q.push(data)
	m.wakeLocked()
}

// land makes src's oldest in-flight message receivable; a mailbox closed
// in the meantime drops it.
func (m *mailbox) land(src int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.flights[src]
	f := q[0]
	q[0] = inflight{}
	m.flights[src] = q[1:]
	if !m.closed {
		m.enqueueLocked(src, f.tag, f.buf)
	}
}

// watchCancel arranges for a cancelled context to wake every waiter on
// the mailbox, so blocked receives can observe ctx.Err() instead of
// sleeping forever. It returns a stop function that must be called when
// the receive completes. Receivers register it lazily — only once they
// are actually about to block — so a receive satisfied from the queue
// pays nothing for cancellation support. If ctx is already cancelled
// the callback fires asynchronously; it only blocks on m.mu, which the
// caller releases inside cond.Wait, so there is no deadlock.
func (m *mailbox) watchCancel(ctx context.Context) func() bool {
	return context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.wakeLocked()
		m.mu.Unlock()
	})
}

// Recv blocks until a (src, tag) message is available, the mailbox is
// closed, or ctx is cancelled (nil ctx blocks indefinitely).
func (m *mailbox) Recv(ctx context.Context, src, tag int) ([]byte, error) {
	cancellable := ctx != nil && ctx.Done() != nil
	var stop func() bool
	defer func() {
		if stop != nil {
			stop()
		}
	}()
	m.mu.Lock()
	defer m.mu.Unlock()
	k := msgKey{src, tag}
	for {
		if q := m.queues[k]; q != nil && !q.empty() {
			return q.pop(), nil
		}
		if m.closed {
			return nil, m.closedErrLocked()
		}
		if m.deadLocked(src) {
			return nil, fmt.Errorf("comm: recv from rank %d: %w", src, ErrPeerDead)
		}
		if cancellable {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if stop == nil {
				stop = m.watchCancel(ctx)
			}
		}
		m.waitLocked()
	}
}

// RecvTimeout is Recv with a deadline on the mailbox clock; it returns
// ErrTimeout when the deadline passes without a matching message. On a
// simulated clock the deadline is a scheduled event like any other, so
// failure-detection timeouts fire at exact virtual instants.
func (m *mailbox) RecvTimeout(src, tag int, d time.Duration) ([]byte, error) {
	deadline := m.clock.Now().Add(d)
	timer := m.clock.AfterFunc(d, func() {
		m.mu.Lock()
		m.wakeLocked()
		m.mu.Unlock()
	})
	defer timer.Stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	k := msgKey{src, tag}
	for {
		if q := m.queues[k]; q != nil && !q.empty() {
			return q.pop(), nil
		}
		if m.closed {
			return nil, m.closedErrLocked()
		}
		if m.deadLocked(src) {
			return nil, fmt.Errorf("comm: recv from rank %d: %w", src, ErrPeerDead)
		}
		if !m.clock.Now().Before(deadline) {
			return nil, ErrTimeout
		}
		m.waitLocked()
	}
}

// match returns the lowest source with a queued message for tag that
// the mask admits (nil mask admits every source), or -1.
func (m *mailbox) match(tag int, mask []bool) int {
	bestSrc := -1
	for k, q := range m.queues {
		if k.tag != tag || q.empty() {
			continue
		}
		if mask != nil && (k.src < 0 || k.src >= len(mask) || !mask[k.src]) {
			continue
		}
		if bestSrc < 0 || k.src < bestSrc {
			bestSrc = k.src
		}
	}
	return bestSrc
}

// RecvAnyOf blocks until a message with the tag is available from a
// source the mask admits (nil admits all), preferring the lowest source
// rank for determinism; it unblocks with an error when the mailbox
// closes or ctx is cancelled. It is the arrival-order receive
// primitive: the executor marks the peers it is still missing and
// unpacks whichever of them delivers first, while messages from
// already-served peers (which belong to a later operation) stay queued.
func (m *mailbox) RecvAnyOf(ctx context.Context, tag int, mask []bool) (int, []byte, error) {
	cancellable := ctx != nil && ctx.Done() != nil
	var stop func() bool
	defer func() {
		if stop != nil {
			stop()
		}
	}()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if src := m.match(tag, mask); src >= 0 {
			return src, m.queues[msgKey{src, tag}].pop(), nil
		}
		if m.closed {
			return 0, nil, m.closedErrLocked()
		}
		if m.allDeadLocked(mask) {
			return 0, nil, fmt.Errorf("comm: every admitted source is dead: %w", ErrPeerDead)
		}
		if cancellable {
			if err := ctx.Err(); err != nil {
				return 0, nil, err
			}
			if stop == nil {
				stop = m.watchCancel(ctx)
			}
		}
		m.waitLocked()
	}
}

// PollAnyOf is the non-blocking RecvAnyOf: it returns ok=false when no
// admissible message has arrived yet, letting a send loop drain ready
// receives without stalling.
func (m *mailbox) PollAnyOf(tag int, mask []bool) (src int, data []byte, ok bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if src := m.match(tag, mask); src >= 0 {
		return src, m.queues[msgKey{src, tag}].pop(), true, nil
	}
	if m.closed {
		return 0, nil, false, m.closedErrLocked()
	}
	return 0, nil, false, nil
}

// Clock returns the clock deadlines and delivery delays run on.
func (m *mailbox) Clock() vtime.Clock { return m.clock }

// Close fails all pending and future receives, and sends to this
// mailbox, with ErrClosed.
func (m *mailbox) Close() error {
	m.closeWith(nil)
	return nil
}

// closeWith is close with an explicit failure cause (nil means
// ErrClosed); the first close wins.
func (m *mailbox) closeWith(err error) {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		m.closeErr = err
	}
	m.wakeLocked()
	m.mu.Unlock()
}
