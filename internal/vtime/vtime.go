// Package vtime abstracts the runtime's view of time behind a Clock,
// with two implementations: Real (the wall clock) and Sim, a
// deterministic discrete-event clock. Everything in the runtime that
// sleeps, stamps or measures — the network cost model's charges,
// delayed delivery, RecvTimeout deadlines, the solver's and balancer's
// phase timings — goes through the Clock, so an adaptive scenario that
// takes minutes of wall time on Real runs in milliseconds on Sim, and
// runs identically every time.
//
// # The simulated clock's contract
//
// A Sim serves a fixed set of registered workers (the SPMD rank
// goroutines; comm.World.SPMD registers them automatically). Virtual time
// only moves in one place: when every registered worker is blocked —
// either in Sleep or parked on an external condition it has announced
// through Block — the clock jumps to the earliest scheduled event and
// fires it. Workers therefore never observe time passing while they
// run: a worker's reading of Now is always the instant it last woke,
// which is what makes runs deterministic regardless of how the OS
// schedules the goroutines. If every worker is blocked and no event is
// scheduled, no virtual future can unblock anyone: that is a deadlock,
// and the stall handler fires instead of hanging the process.
//
// # Charged compute
//
// Charge(clock, d, f) runs the pure computation f and returns once d of
// clock time has passed since the call. On a Sim the wake-up at now+d
// is scheduled before f starts and held until f returns, and the worker
// counts as blocked while f runs: the clock fires every earlier event
// meanwhile, so other workers run, and charge their own computations, at
// the same real time. For that to leave the virtual timeline exactly
// where a sequential f-then-Sleep would, f must not touch the clock (no
// Now, Sleep or AfterFunc), must not communicate and must share no
// state with other workers. Then f creates no events, at most one worker
// runs anything but a charged computation at a time, and every timer is
// scheduled in the same order, at the same instant, as before. Now after
// Charge returns is the call's instant plus d, as after a Sleep.
package vtime

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
	"time"
)

// Clock is the runtime's source of time. Implementations must be safe
// for concurrent use.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep pauses the calling goroutine for d (no-op for d <= 0). On a
	// Sim the caller must be a registered worker.
	Sleep(d time.Duration)
	// AfterFunc schedules f to run once d has elapsed. On a Sim, f runs
	// on the clock's dispatcher goroutine when virtual time reaches the
	// deadline; f must not block indefinitely.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a handle on a pending AfterFunc. Stop reports whether it
// prevented the function from running.
type Timer interface {
	Stop() bool
}

// Real is the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer { return realTimer{time.AfterFunc(d, f)} }

type realTimer struct{ t *time.Timer }

func (t realTimer) Stop() bool { return t.t.Stop() }

// Charge runs f and returns once d of clock time has passed since the
// call: the virtual compute charge of work f really does. On a Sim the
// charge overlaps f (see the package comment, "Charged compute", for
// what f may do); on any other clock it is f() followed by Sleep(d).
func Charge(c Clock, d time.Duration, f func()) {
	if s := AsSim(c); s != nil && d > 0 {
		s.charge(d, f)
		return
	}
	f()
	c.Sleep(d)
}

// AsSim returns the Sim behind a Clock, or nil for any other
// implementation — the hook blocking primitives use to decide whether
// waiter accounting applies.
func AsSim(c Clock) *Sim {
	s, _ := c.(*Sim)
	return s
}

// simEpoch is the fixed instant a Sim starts at. Any constant works —
// only durations between instants are observable — but a fixed one
// keeps Now values themselves reproducible across runs.
var simEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// timer kinds.
const (
	timerSleep    = iota // wakes the goroutine parked in Sleep
	timerCallback        // runs a function on the dispatcher
)

// timer is one scheduled event.
type timer struct {
	due     time.Duration
	seq     uint64 // insertion order; ties on due fire in seq order (per-goroutine FIFO)
	kind    int
	fired   bool
	stopped bool
	busy    bool // a Charge's computation still runs: nothing at or past it fires
	fn      func()
	next    *timer // freelist link
}

// timerHeap is a min-heap on (due, seq).
type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Sim is the deterministic discrete-event clock.
type Sim struct {
	mu   sync.Mutex
	cond *sync.Cond

	now     time.Duration
	seq     uint64
	workers int // registered worker goroutines (Add/Done)
	blocked int // workers currently parked (Sleep or Block)
	timers  timerHeap

	// Fired callbacks awaiting execution. They run in fire order on a
	// transient runner goroutine; pending counts callbacks queued or
	// executing, and the clock never advances past an unexecuted one.
	ready   []func()
	pending int
	running bool

	free *timer // recycled timers, so steady-state Sleep allocates nothing

	onStall func()
	stalled bool
	// stallGen counts state mutations. A suspected stall is only
	// confirmed after a real-time grace period if no mutation happened
	// meanwhile — wakeups that travel outside the clock (a cancelled
	// context's AfterFunc goroutine calling Unblock) are in flight for
	// a moment during which the blocked counts look like a deadlock.
	stallGen uint64
}

// stallGrace is how long a suspected deadlock must persist, in real
// time, before the stall handler fires. It only delays the error path:
// asynchronous out-of-band wakeups (context cancellation) get this
// long to land and disprove the stall.
const stallGrace = 10 * time.Millisecond

// NewSim returns a simulated clock at the fixed epoch with no workers
// registered.
func NewSim() *Sim {
	s := &Sim{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Now implements Clock: the epoch plus the virtual time elapsed.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return simEpoch.Add(s.now)
}

// Add registers n worker goroutines. Register every worker of a
// cohort before any of them starts blocking (comm.World.SPMD does), or an
// early blocker could be mistaken for "everyone is blocked" and
// advance the clock prematurely.
func (s *Sim) Add(n int) {
	s.mu.Lock()
	s.workers += n
	s.stallGen++
	s.mu.Unlock()
}

// Done deregisters the calling worker. The remaining workers may now
// satisfy the all-blocked condition, so an advance is attempted.
func (s *Sim) Done() {
	s.mu.Lock()
	s.workers--
	s.stallGen++
	s.maybeAdvanceLocked()
	s.mu.Unlock()
}

// Sleep implements Clock: the worker parks until virtual time reaches
// now+d. If it was the last runnable worker, the clock advances.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.waitLocked(s.parkLocked(d, false))
	s.mu.Unlock()
}

// charge is Charge on a Sim: the wake-up is scheduled busy, and the
// worker counted as blocked, before f starts, exactly as if it were
// already parked in Sleep(d). Events due before the wake-up fire while
// f runs; the wake-up, and everything due after it, waits for f to
// return — the order a sequential f-then-Sleep gives.
func (s *Sim) charge(d time.Duration, f func()) {
	s.mu.Lock()
	t := s.parkLocked(d, true)
	s.mu.Unlock()
	returned := false
	defer func() {
		if returned {
			return
		}
		// f panicked: the worker runs on without its wake-up. Drop it (a
		// stopped timer is discarded when popped, never recycled) and
		// take back its blocked mark.
		s.mu.Lock()
		t.busy, t.stopped = false, true
		s.blocked--
		s.stallGen++
		s.mu.Unlock()
	}()
	f()
	returned = true
	s.mu.Lock()
	t.busy = false
	s.stallGen++
	s.maybeAdvanceLocked()
	s.waitLocked(t)
	s.mu.Unlock()
}

// parkLocked schedules the calling worker's wake-up d from now — held
// while busy — and counts the worker as blocked. If it was the last
// runnable worker, the clock advances.
func (s *Sim) parkLocked(d time.Duration, busy bool) *timer {
	t := s.newTimerLocked(d, timerSleep, nil)
	t.busy = busy
	heap.Push(&s.timers, t)
	s.stalled = false
	s.stallGen++
	s.blocked++
	s.maybeAdvanceLocked()
	return t
}

// waitLocked waits for a parked worker's wake-up to fire and recycles
// it.
func (s *Sim) waitLocked(t *timer) {
	for !t.fired {
		s.cond.Wait()
	}
	s.putTimerLocked(t)
}

// AfterFunc implements Clock. f runs on a dispatcher goroutine once
// virtual time reaches the deadline; the clock does not advance past a
// fired-but-unexecuted callback, so anything f unblocks (a message
// delivery waking a receiver) is accounted before the next event.
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	t := s.newTimerLocked(d, timerCallback, f)
	heap.Push(&s.timers, t)
	s.stalled = false
	s.stallGen++
	s.maybeAdvanceLocked()
	s.mu.Unlock()
	return simTimer{s: s, t: t}
}

type simTimer struct {
	s *Sim
	t *timer
}

// Stop prevents a pending callback from firing. The timer stays in
// the heap and is discarded when popped.
func (st simTimer) Stop() bool {
	st.s.mu.Lock()
	defer st.s.mu.Unlock()
	if st.t.fired || st.t.stopped {
		return false
	}
	st.t.stopped = true
	return true
}

// Block announces that the calling worker is parked on an external
// condition (a mailbox receive). Whoever satisfies the condition must
// call Unblock for it — transferring the "runnable" token atomically
// with the wakeup is what keeps the advance rule race-free.
func (s *Sim) Block() {
	s.mu.Lock()
	s.blocked++
	s.stallGen++
	s.maybeAdvanceLocked()
	s.mu.Unlock()
}

// Unblock retires n outstanding Block marks (no-op for n <= 0).
func (s *Sim) Unblock(n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.blocked -= n
	s.stalled = false
	s.stallGen++
	s.mu.Unlock()
}

// SetStallHandler replaces the deadlock handler. The default panics
// with a diagnostic; a session-level harness typically cancels its
// context instead, which unblocks every receive with an error. The
// handler runs on its own goroutine and fires once per quiescent
// episode.
func (s *Sim) SetStallHandler(f func()) {
	s.mu.Lock()
	s.onStall = f
	s.mu.Unlock()
}

// maybeAdvanceLocked fires the earliest scheduled event if every
// registered worker is blocked and no fired callback is outstanding —
// the waiter-counting auto-advance rule. Firing makes someone runnable
// (a woken sleeper, or a callback the dispatcher will run), which
// breaks the condition until they block again.
func (s *Sim) maybeAdvanceLocked() {
	for s.workers > 0 && s.blocked >= s.workers && s.pending == 0 {
		var t *timer
		for len(s.timers) > 0 {
			if s.timers[0].busy {
				// A Charge's computation is still running. Everyone being
				// blocked is not a stall: the charge re-evaluates when its
				// computation returns.
				return
			}
			c := heap.Pop(&s.timers).(*timer)
			if c.stopped {
				// Callback timers are never recycled: their simTimer
				// handle outlives them and may still be Stopped.
				continue
			}
			t = c
			break
		}
		if t == nil {
			s.stallLocked()
			return
		}
		if t.due > s.now {
			s.now = t.due
		}
		t.fired = true
		switch t.kind {
		case timerSleep:
			// The sleeper is runnable from this instant; it retires its
			// own blocked mark's worth here so the clock cannot advance
			// again before it actually wakes.
			s.blocked--
			s.cond.Broadcast()
		case timerCallback:
			s.ready = append(s.ready, t.fn)
			s.pending++
			if !s.running {
				s.running = true
				go s.runCallbacks()
			}
		}
	}
}

// runCallbacks drains fired callbacks in fire order. A single runner
// at a time preserves FIFO; it exits when the queue empties.
func (s *Sim) runCallbacks() {
	s.mu.Lock()
	for len(s.ready) > 0 {
		fn := s.ready[0]
		s.ready[0] = nil
		s.ready = s.ready[1:]
		s.mu.Unlock()
		fn()
		s.mu.Lock()
		s.pending--
		s.stallGen++
		s.maybeAdvanceLocked()
	}
	s.running = false
	s.mu.Unlock()
}

// stallLocked starts confirming a suspected virtual-time deadlock:
// every worker is blocked and no scheduled event can ever unblock one.
// Confirmation is deferred by stallGrace so an out-of-band wakeup
// already in flight (a context cancellation's AfterFunc goroutine,
// which the clock cannot see until it calls Unblock) can disprove it.
func (s *Sim) stallLocked() {
	if s.stalled {
		return
	}
	s.stalled = true
	go s.confirmStall(s.stallGen)
}

// confirmStall fires the stall handler if no clock-state mutation
// happened since the suspicion was raised; otherwise it clears the
// suspicion and re-evaluates, so a still-deadlocked clock re-arms with
// the new generation.
func (s *Sim) confirmStall(gen uint64) {
	time.Sleep(stallGrace)
	s.mu.Lock()
	if s.stallGen != gen {
		s.stalled = false
		s.maybeAdvanceLocked()
		s.mu.Unlock()
		return
	}
	msg := fmt.Sprintf("vtime: deadlock at virtual %v: all %d workers blocked with no scheduled event",
		s.now, s.workers)
	h := s.onStall
	s.mu.Unlock()
	if h != nil {
		h()
		return
	}
	panic(msg)
}

// newTimerLocked takes a timer from the freelist or allocates one, due
// d from now. A deadline past the end of virtual time saturates there
// instead of wrapping into the past.
func (s *Sim) newTimerLocked(d time.Duration, kind int, fn func()) *timer {
	due := s.now + d
	if d > 0 && due < s.now {
		due = math.MaxInt64
	}
	t := s.free
	if t == nil {
		t = &timer{}
	} else {
		s.free = t.next
	}
	s.seq++
	*t = timer{due: due, seq: s.seq, kind: kind, fn: fn}
	return t
}

// putTimerLocked recycles a popped timer.
func (s *Sim) putTimerLocked(t *timer) {
	*t = timer{next: s.free}
	s.free = t
}
