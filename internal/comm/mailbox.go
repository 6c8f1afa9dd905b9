package comm

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"stance/internal/vtime"
)

// msgq is one (source, tag) stream's FIFO. It is a slice drained by a
// head index instead of re-slicing, so the backing array is reused once
// the queue empties: a steady-state deliver/recv ping-pong touches no
// allocator at all.
type msgq struct {
	frames [][]byte
	head   int
}

func (q *msgq) empty() bool { return q.head == len(q.frames) }

// push appends b. A full backing array whose head has moved on is
// compacted before it grows, so a FIFO that never quite empties — a
// peer one operation ahead keeps it at one or two messages — stays at
// its deepest length instead of creeping along an ever larger array.
func (q *msgq) push(b []byte) {
	if q.head > 0 && len(q.frames) == cap(q.frames) {
		n := copy(q.frames, q.frames[q.head:])
		clear(q.frames[n:])
		q.frames = q.frames[:n]
		q.head = 0
	}
	q.frames = append(q.frames, b)
}

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

// tagq holds one tag's messages — matching is by (source, tag), the
// P4-style rule — as one FIFO per source that has ever sent the tag,
// kept in ascending source order: a tag's table is as long as its set of
// senders (the executor's peers, or the whole world at a collective's
// root), whatever else the mailbox has carried. Slots are never freed: a
// table is reused by every later message on its tag, which is what keeps
// the executor's rotating wire tags allocation-free once each has been
// used.
type tagq struct {
	srcs   []int  // ascending
	from   []msgq // from[i] is srcs[i]'s FIFO
	queued int    // messages waiting, over all sources
}

// push queues b behind src's earlier messages and reports whether it is
// the only one queued from src: the first a batch waiter can count.
func (t *tagq) push(src int, b []byte) (first bool) {
	i, ok := slices.BinarySearch(t.srcs, src)
	if !ok {
		t.srcs = slices.Insert(t.srcs, i, src)
		t.from = slices.Insert(t.from, i, msgq{})
	}
	first = t.from[i].empty()
	t.from[i].push(b)
	t.queued++
	return first
}

// pop takes the oldest message of the non-empty FIFO at position i.
func (t *tagq) pop(i int) []byte {
	t.queued--
	return t.from[i].pop()
}

// popFrom takes src's oldest message, if it has one queued.
func (t *tagq) popFrom(src int) ([]byte, bool) {
	if t.queued == 0 {
		return nil, false
	}
	if i, ok := slices.BinarySearch(t.srcs, src); ok && !t.from[i].empty() {
		return t.pop(i), true
	}
	return nil, false
}

// popLowest takes the oldest message of the lowest source with one
// queued that the mask admits (nil admits every source); src is -1 when
// there is none.
func (t *tagq) popLowest(mask []bool) (src int, data []byte) {
	if t.queued == 0 {
		return -1, nil
	}
	for i, src := range t.srcs {
		if t.from[i].empty() {
			continue
		}
		if admits(mask, src) {
			return src, t.pop(i)
		}
	}
	return -1, nil
}

// popBatch appends to b the oldest message of every source with one
// queued that the mask admits, in ascending source order.
func (t *tagq) popBatch(mask []bool, b *Batch) {
	for i := 0; i < len(t.srcs) && t.queued > 0; i++ {
		if src := t.srcs[i]; !t.from[i].empty() && admits(mask, src) {
			b.Srcs = append(b.Srcs, src)
			b.Data = append(b.Data, t.pop(i))
		}
	}
}

// admits reports whether the receive mask admits src; nil admits every
// source.
func admits(mask []bool, src int) bool {
	return mask == nil || (src >= 0 && src < len(mask) && mask[src])
}

// Batch is what one TakeAnyOf took: Data[i] came from Srcs[i], at most
// one message per source, sources ascending. TakeAnyOf empties it
// before filling it, so one Batch serves every receive of an operation
// and its backing arrays are reused.
type Batch struct {
	Srcs []int
	Data [][]byte
}

func (b *Batch) reset() {
	clear(b.Data)
	b.Srcs, b.Data = b.Srcs[:0], b.Data[:0]
}

// cancelWatch is the mailbox's one registration on a context some
// receive has parked under: when the context is cancelled it wakes the
// mailbox. It outlives the receive that created it, so later receives
// under the same context park without touching the context at all.
type cancelWatch struct {
	done   <-chan struct{} // the context's Done channel: its identity
	stop   func() bool
	parked int // receives currently blocked under the context
}

// maxPooled bounds the number of idle payload buffers a mailbox keeps
// for reuse; beyond that, returned buffers fall to the GC.
const maxPooled = 64

// A pooled buffer serves a request of n bytes when its capacity is at
// least n and at most poolSlack*n + poolSmall: within a small multiple
// for payloads, and any buffer of a few hundred bytes for the control
// frames, whose sizes differ by more than that multiple but cost
// nothing to over-serve.
const (
	poolSlack = 4
	poolSmall = 512
)

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
// deliver copies each payload into a pooled buffer and receivers hand
// them back through Release, so the steady-state executor data path
// recycles buffers instead of allocating per message.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// tags is the matching structure: one table per tag ever received,
	// one FIFO per sender of that tag inside it (see tagq). A receive
	// looks its tag up once and never visits another tag's queues.
	tags   map[int]*tagq
	free   [][]byte
	closed bool
	// flights holds, per source, the messages still in modeled flight
	// (Model.Delay), oldest first; see deliver.
	flights map[int][]inflight
	// closeErr is what pending and future receives fail with once the
	// mailbox is closed: ErrClosed on a normal shutdown, ErrKilled when
	// the endpoint was crash-injected.
	closeErr error

	// watches are the contexts whose cancellation wakes the mailbox; see
	// parkLocked.
	watches []*cancelWatch
	// section is the SPMD section covering this endpoint (see cover):
	// the Done channel of its context, which World.SPMD watches once for
	// every endpoint, and the receives parked under it right now.
	section struct {
		done   <-chan struct{}
		parked int
	}

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
	// waiter accounting. waiting counts the receives parked and not yet
	// woken — on a simulated clock, the waiters marked blocked in it.
	// Every wakeup path (deliver, close, cancel, deadline) goes through
	// wakeLocked, which retires those marks atomically with the
	// broadcast — the clock must see the woken waiters as runnable
	// before it can advance again.
	clock   vtime.Clock
	sim     *vtime.Sim
	waiting int
	wakeGen uint64

	// batch is the batch waiter: a TakeAnyOf parked until need more of
	// the sources its mask admits have a message queued on its tag (see
	// enqueueLocked). owner is the parked call's Batch, nil when no
	// batch waiter is parked; a wake clears it.
	batch struct {
		owner *Batch
		tag   int
		mask  []bool
		need  int
	}
}

func newMailbox(clock vtime.Clock) *mailbox {
	if clock == nil {
		clock = vtime.Real{}
	}
	m := &mailbox{tags: make(map[int]*tagq), flights: make(map[int][]inflight),
		clock: clock, sim: vtime.AsSim(clock)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// waitLocked parks the caller on the mailbox condition. On a simulated
// clock the waiter is marked blocked so the clock can auto-advance; the
// mark is retired by the waker (wakeLocked) — waiting tracks exactly
// the waiters not yet woken.
func (m *mailbox) waitLocked() {
	m.waiting++
	gen := m.wakeGen
	if m.sim != nil {
		m.sim.Block()
	}
	m.cond.Wait()
	// A wakeLocked since we parked has already retired every
	// outstanding mark (including ours, and possibly before we actually
	// woke); only a wake that bypassed wakeLocked — which none do —
	// would leave our own mark to retire here.
	if m.wakeGen == gen {
		m.waiting--
		if m.sim != nil {
			m.sim.Unblock(1)
		}
	}
}

// wakeLocked wakes every waiter, first handing their runnable tokens
// back to the simulated clock (no-op on the real clock). Every path
// that can satisfy or abort a wait must use it instead of a bare
// Broadcast. With no waiter parked it does nothing: a waiter counted
// out by an earlier wake has been signalled already.
func (m *mailbox) wakeLocked() {
	if m.waiting == 0 {
		return
	}
	if m.sim != nil {
		m.sim.Unblock(m.waiting)
	}
	m.waiting = 0
	m.batch.owner = nil
	m.wakeGen++
	m.cond.Broadcast()
}

// parkLocked blocks a receive that found nothing to take until the next
// wake, or fails it with ctx.Err() when ctx (nil or Background:
// uncancellable) is already cancelled. A receive under the context of
// the SPMD section covering the mailbox parks without touching the
// context beyond reading its Done channel: the section's one watch
// wakes every endpoint it covers (World.SPMD). Any other context
// reaches parked receives through one watch per context: the first
// receive to park under it registers it, every later one only counts
// itself in and out. A watch is dropped when its context is cancelled,
// when the mailbox closes, or, idle, when a receive parks under a
// different context — so the mailbox holds at most one registration
// beyond the contexts receives are parked under right now, and a
// context in use is never unregistered by another's arrival.
func (m *mailbox) parkLocked(ctx context.Context) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if done == nil {
		m.waitLocked()
		return nil
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	parked := &m.section.parked
	if done != m.section.done {
		parked = &m.watchLocked(ctx, done).parked
	}
	*parked++
	m.waitLocked()
	*parked--
	return nil
}

// cover marks the mailbox as covered by the SPMD section whose context
// has the given Done channel, unless another section covers it already
// (a section nested on the same endpoint then parks on its own watch,
// as any other context does). The section must wake the mailbox when
// its context is cancelled.
func (m *mailbox) cover(done <-chan struct{}) {
	m.mu.Lock()
	if m.section.done == nil {
		m.section.done = done
	}
	m.mu.Unlock()
}

// uncover ends the section's cover, if it holds it.
func (m *mailbox) uncover(done <-chan struct{}) {
	m.mu.Lock()
	if m.section.done == done {
		m.section.done = nil
	}
	m.mu.Unlock()
}

// wake wakes every waiter, so receives re-check their contexts.
func (m *mailbox) wake() {
	m.mu.Lock()
	m.wakeLocked()
	m.mu.Unlock()
}

// box returns the mailbox itself: every transport endpoint embeds one,
// and World.SPMD reaches it through the Transport interface.
func (m *mailbox) box() *mailbox { return m }

// watchLocked returns the watch on ctx, registering it — and retiring
// the idle watches on other contexts — when there is none.
func (m *mailbox) watchLocked(ctx context.Context, done <-chan struct{}) *cancelWatch {
	for _, w := range m.watches {
		if w.done == done {
			return w
		}
	}
	m.watches = slices.DeleteFunc(m.watches, func(w *cancelWatch) bool {
		return w.parked == 0 && w.stop()
	})
	w := &cancelWatch{done: done}
	// An already-cancelled ctx runs the callback on its own goroutine; it
	// only blocks on m.mu, which the caller releases inside cond.Wait.
	w.stop = context.AfterFunc(ctx, func() {
		m.mu.Lock()
		if i := slices.Index(m.watches, w); i >= 0 {
			m.watches = slices.Delete(m.watches, i, i+1)
		}
		m.wakeLocked()
		m.mu.Unlock()
	})
	m.watches = append(m.watches, w)
	return w
}

// takeBufLocked returns a payload buffer of length n, reusing a pooled
// one when possible. One pool serves all message sizes on a rank, so the
// scan skips entries of the wrong size for this request instead of
// discarding them: too small, or more than poolSlack times too large —
// an 8-byte heartbeat must not walk off with a checkpoint mirror's
// 190 kB buffer, which a receiver that never Releases would then drop to
// the GC, one fresh snapshot buffer per checkpoint. Among the entries
// that fit it takes the smallest, newest first, and stops at an exact
// fit: a small ghost message must not take the buffer the next large
// one needs either, or the pool fills with small buffers while every
// large message allocates — a rank whose peers' messages differ in size
// and arrive in bursts, as the executor's do at p=64, did exactly that.
// In the steady state an exact fit is in the pool.
func (m *mailbox) takeBufLocked(n int) []byte {
	best := -1
	for i := len(m.free) - 1; i >= 0; i-- {
		c := cap(m.free[i])
		if c < n || c > poolSlack*n+poolSmall || best >= 0 && c >= cap(m.free[best]) {
			continue
		}
		if best = i; c == n {
			break
		}
	}
	if best < 0 {
		return make([]byte, n)
	}
	b := m.free[best]
	last := len(m.free) - 1
	m.free[best] = m.free[last]
	m.free[last] = nil
	m.free = m.free[:last]
	return b[:n]
}

// Release returns delivered payload buffers to the pool, all of them in
// one lock round. The caller must not touch the buffers afterwards.
func (m *mailbox) Release(bufs ...[]byte) {
	m.mu.Lock()
	for _, b := range bufs {
		if len(m.free) == maxPooled {
			break
		}
		if cap(b) > 0 {
			m.free = append(m.free, b[:0])
		}
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

// anyDeadLocked reports whether some source the mask admits is dead.
func (m *mailbox) anyDeadLocked(mask []bool) bool {
	for src, dead := range m.dead {
		if dead && admits(mask, src) {
			return true
		}
	}
	return false
}

// closedErrLocked is the error receives fail with after close.
func (m *mailbox) closedErrLocked() error {
	if m.closeErr != nil {
		return m.closeErr
	}
	return ErrClosed
}

// deliver copies a message from src into a pooled buffer and makes it
// receivable after the medium's one-way delivery delay (Model.Delay;
// zero means at once) — one lock round, the whole of an in-process
// send. The caller keeps payload. A closed mailbox refuses the message
// with ErrClosed. It is the one delivery path of every transport on
// either clock: a delayed message parks in its source's in-flight FIFO
// and a clock event lands it, without holding the sender. Each event
// lands the source's oldest in-flight message rather than "its own", so
// per-(src, tag) FIFO holds whatever order the real clock runs timer
// goroutines in; one (src, dst) pair has one delay, so the oldest is
// never landed before its own instant. A simulated clock fires events in
// scheduling order, which makes the two readings coincide.
func (m *mailbox) deliver(src, tag int, payload []byte, delay time.Duration) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	buf := m.takeBufLocked(len(payload))
	copy(buf, payload)
	if delay <= 0 {
		m.enqueueLocked(src, tag, buf)
		m.mu.Unlock()
		return nil
	}
	m.flights[src] = append(m.flights[src], inflight{tag, buf})
	m.mu.Unlock()
	m.clock.AfterFunc(delay, func() { m.land(src) })
	return nil
}

// enqueueLocked makes a message receivable and wakes the waiters — with
// one exception, the wake rule of TakeAnyOf: when the batch waiter is
// the only receive parked, only the delivery that completes its count
// wakes it. A delivery counts when the waiter's mask admits its source
// on the waiter's tag and nothing from that source was queued there
// yet; any other delivery leaves the waiter parked.
func (m *mailbox) enqueueLocked(src, tag int, data []byte) {
	t := m.tags[tag]
	if t == nil {
		t = &tagq{}
		m.tags[tag] = t
	}
	first := t.push(src, data)
	if w := &m.batch; w.owner != nil && m.waiting == 1 {
		if tag != w.tag || !first || !admits(w.mask, src) {
			return
		}
		if w.need--; w.need > 0 {
			return
		}
	}
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

// takeLocked is the non-blocking half of Recv: the oldest (src, tag)
// message, or the error that says none can ever come; ok=false means
// the caller may wait for one.
func (m *mailbox) takeLocked(src, tag int) (data []byte, ok bool, err error) {
	if t := m.tags[tag]; t != nil {
		if data, ok := t.popFrom(src); ok {
			return data, true, nil
		}
	}
	if m.closed {
		return nil, false, m.closedErrLocked()
	}
	if m.deadLocked(src) {
		return nil, false, fmt.Errorf("comm: recv from rank %d: %w", src, ErrPeerDead)
	}
	return nil, false, nil
}

// Recv blocks until a (src, tag) message is available, the mailbox is
// closed, or ctx is cancelled (nil ctx blocks indefinitely).
func (m *mailbox) Recv(ctx context.Context, src, tag int) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if data, ok, err := m.takeLocked(src, tag); ok || err != nil {
			return data, err
		}
		if err := m.parkLocked(ctx); err != nil {
			return nil, err
		}
	}
}

// RecvTimeout is Recv with a deadline on the mailbox clock; it returns
// ErrTimeout when the deadline passes without a matching message, and
// ctx.Err() when ctx is cancelled first. On a simulated clock the
// deadline is a scheduled event like any other, so failure-detection
// timeouts fire at exact virtual instants.
func (m *mailbox) RecvTimeout(ctx context.Context, src, tag int, d time.Duration) ([]byte, error) {
	deadline := m.clock.Now().Add(d)
	timer := m.clock.AfterFunc(d, m.wake)
	defer timer.Stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if data, ok, err := m.takeLocked(src, tag); ok || err != nil {
			return data, err
		}
		// Cancellation is read before the deadline: a section torn down
		// while the clock ran on to the deadline still ends in ctx.Err().
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if !m.clock.Now().Before(deadline) {
			return nil, ErrTimeout
		}
		if err := m.parkLocked(ctx); err != nil {
			return nil, err
		}
	}
}

// takeAnyLocked is the non-blocking half of RecvAnyOf: the oldest
// message of the lowest source with one queued for tag that the mask
// admits (nil admits every source), or the mailbox's close error;
// ok=false means nothing admissible has arrived yet.
func (m *mailbox) takeAnyLocked(tag int, mask []bool) (src int, data []byte, ok bool, err error) {
	if t := m.tags[tag]; t != nil {
		if src, data := t.popLowest(mask); src >= 0 {
			return src, data, true, nil
		}
	}
	if m.closed {
		return 0, nil, false, m.closedErrLocked()
	}
	return 0, nil, false, nil
}

// RecvAnyOf blocks until a message with the tag is available from a
// source the mask admits (nil admits all), preferring the lowest source
// rank for determinism; it unblocks with an error when the mailbox
// closes or ctx is cancelled. It is the arrival-order receive
// primitive: the executor marks the peers it is still missing and
// unpacks whichever of them delivers first, while messages from
// already-served peers (which belong to a later operation) stay queued.
func (m *mailbox) RecvAnyOf(ctx context.Context, tag int, mask []bool) (int, []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if src, data, ok, err := m.takeAnyLocked(tag, mask); ok || err != nil {
			return src, data, err
		}
		if m.allDeadLocked(mask) {
			return 0, nil, fmt.Errorf("comm: every admitted source is dead: %w", ErrPeerDead)
		}
		if err := m.parkLocked(ctx); err != nil {
			return 0, nil, err
		}
	}
}

// TakeAnyOf is the batched arrival-order receive: in one lock round it
// takes the oldest queued message on tag of every source the mask admits
// (nil admits all), at most one per source, sources ascending, into b.
// With await <= 0 it never blocks, and an empty batch means nothing
// admissible has arrived. Otherwise, when nothing admissible is queued,
// it parks as the mailbox's batch waiter until await admitted sources
// have a message queued — await is how many the caller still waits on,
// and no delivery short of the last wakes it — or until the mailbox
// closes, ctx is cancelled, an admitted source is declared dead or a
// delivery for another parked receive wakes the mailbox. A wake that
// finds some of the awaited messages queued returns those. The error
// is that of RecvAnyOf, and b is empty when it is not nil.
func (m *mailbox) TakeAnyOf(ctx context.Context, tag int, mask []bool, await int, b *Batch) error {
	b.reset()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if t := m.tags[tag]; t != nil {
			if t.popBatch(mask, b); len(b.Srcs) > 0 {
				return nil
			}
		}
		if m.closed {
			return m.closedErrLocked()
		}
		if await <= 0 {
			return nil
		}
		if m.allDeadLocked(mask) {
			return fmt.Errorf("comm: every admitted source is dead: %w", ErrPeerDead)
		}
		// One batch waiter per mailbox; a second one, or one awaiting a
		// dead source that can never count, parks as any receive does
		// and is woken by every delivery.
		batch := m.batch.owner == nil && !m.anyDeadLocked(mask)
		if batch {
			m.batch.owner, m.batch.tag, m.batch.mask, m.batch.need = b, tag, mask, await
		}
		err := m.parkLocked(ctx)
		if batch && m.batch.owner == b {
			m.batch.owner, m.batch.mask = nil, nil
		}
		if err != nil {
			return err
		}
	}
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
// ErrClosed); the first close wins. A closed mailbox parks no receive,
// so it lets go of every context it was watching.
func (m *mailbox) closeWith(err error) {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		m.closeErr = err
	}
	for _, w := range m.watches {
		w.stop()
	}
	clear(m.watches)
	m.watches = m.watches[:0]
	m.wakeLocked()
	m.mu.Unlock()
}
