package comm

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"stance/internal/vtime"
)

// These tests drive the mailbox directly — the one receive half every
// endpoint embeds — and pin what its matching structure and its
// cancellation watches must preserve.

func put(t *testing.T, m *mailbox, src, tag int, payload string) {
	t.Helper()
	if err := m.deliver(src, tag, []byte(payload), 0); err != nil {
		t.Fatal(err)
	}
}

// TestMailboxLowestAdmittedSource pins the matching rule of RecvAnyOf
// and TakeAnyOf: RecvAnyOf takes the lowest source the mask admits
// whatever order the messages arrived in, TakeAnyOf takes the oldest
// message of every admitted source in one batch, sources ascending,
// per-(source, tag) order is FIFO, and what a mask does not admit stays
// queued, in order, for a later receive.
func TestMailboxLowestAdmittedSource(t *testing.T) {
	mask := func(n int, on ...int) []bool {
		m := make([]bool, n)
		for _, i := range on {
			m[i] = true
		}
		return m
	}
	cases := []struct {
		name string
		mask []bool
		// Receive order under mask, "|", then what a nil mask drains:
		// one message per RecvAnyOf, one space-separated batch per
		// TakeAnyOf.
		recv, batch []string
	}{
		{"nil mask", nil,
			[]string{"1a", "1b", "3a", "3b", "70a"},
			[]string{"1a 3a 70a", "1b 3b"}},
		{"one source", mask(71, 3),
			[]string{"3a", "3b", "|", "1a", "1b", "70a"},
			[]string{"3a", "3b", "|", "1a 70a", "1b"}},
		{"two sources", mask(71, 70, 3),
			[]string{"3a", "3b", "70a", "|", "1a", "1b"},
			[]string{"3a 70a", "3b", "|", "1a", "1b"}},
		{"short mask", mask(2, 1),
			[]string{"1a", "1b", "|", "3a", "3b", "70a"},
			[]string{"1a", "1b", "|", "3a 70a", "3b"}},
		{"empty mask", mask(71),
			[]string{"|", "1a", "1b", "3a", "3b", "70a"},
			[]string{"|", "1a 3a 70a", "1b 3b"}},
	}
	for _, tc := range cases {
		// recv: blocking RecvAnyOf; poll: TakeAnyOf that never blocks;
		// batch: TakeAnyOf awaiting one source.
		for _, mode := range []string{"recv", "poll", "batch"} {
			name := tc.name
			if mode != "recv" {
				name += "/" + mode
			}
			t.Run(name, func(t *testing.T) {
				m := newMailbox(nil)
				const tag = 7
				// Arrival order is deliberately not source order, and
				// another tag's traffic sits in between.
				put(t, m, 70, tag, "70a")
				put(t, m, 3, tag, "3a")
				put(t, m, 0, tag+1, "other tag")
				put(t, m, 1, tag, "1a")
				put(t, m, 3, tag, "3b")
				put(t, m, 1, tag, "1b")
				// take receives what the mask admits next. Where the table
				// expects nothing it takes without blocking, so a blocking
				// receive is only asked for messages that should be there.
				var b Batch
				take := func(mask []bool, expected bool) (string, bool) {
					t.Helper()
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					if mode == "recv" && expected {
						_, data, err := m.RecvAnyOf(ctx, tag, mask)
						return string(data), err == nil
					}
					await := 0
					if mode == "batch" && expected {
						await = 1
					}
					if err := m.TakeAnyOf(ctx, tag, mask, await, &b); err != nil {
						t.Fatal(err)
					}
					got := make([]string, len(b.Srcs))
					for i, src := range b.Srcs {
						if got[i] = string(b.Data[i]); strings.TrimRight(got[i], "ab") != strconv.Itoa(src) {
							t.Fatalf("batch says %q came from %d", got[i], src)
						}
					}
					return strings.Join(got, " "), len(got) > 0
				}
				want := tc.batch
				if mode == "recv" {
					want = tc.recv
				}
				cur := tc.mask
				for _, want := range append(want, "|") {
					got, ok := take(cur, want != "|")
					switch {
					case want == "|" && ok:
						t.Fatalf("nothing left to admit, yet received %q", got)
					case want == "|":
						cur = nil
					case !ok || got != want:
						t.Fatalf("received %q (%v), want %q", got, ok, want)
					}
				}
				if data, err := m.Recv(nil, 0, tag+1); err != nil || string(data) != "other tag" {
					t.Fatalf("other tag: %q, %v", data, err)
				}
			})
		}
	}
}

// TestMailboxFailureOutcomes pins which error ends a receive that can
// never complete, and that queued messages outlive the failure that
// follows them.
func TestMailboxFailureOutcomes(t *testing.T) {
	const tag = 9
	recv := func(m *mailbox) error { _, err := m.Recv(context.Background(), 1, tag); return err }
	recvAny := func(m *mailbox) error {
		_, _, err := m.RecvAnyOf(context.Background(), tag, []bool{false, true})
		return err
	}
	takeAny := func(m *mailbox) error {
		var b Batch
		return m.TakeAnyOf(context.Background(), tag, []bool{false, true}, 1, &b)
	}
	timed := func(d time.Duration) func(m *mailbox) error {
		return func(m *mailbox) error { _, err := m.RecvTimeout(nil, 1, tag, d); return err }
	}
	cases := []struct {
		name string
		fail func(m *mailbox)
		op   func(m *mailbox) error
		want error
	}{
		{"closed/recv", func(m *mailbox) { m.Close() }, recv, ErrClosed},
		{"closed/recvAnyOf", func(m *mailbox) { m.Close() }, recvAny, ErrClosed},
		{"closed/takeAnyOf", func(m *mailbox) { m.Close() }, takeAny, ErrClosed},
		{"closed/timeout", func(m *mailbox) { m.Close() }, timed(time.Minute), ErrClosed},
		{"killed/recv", func(m *mailbox) { m.closeWith(ErrKilled) }, recv, ErrKilled},
		{"killed/recvAnyOf", func(m *mailbox) { m.closeWith(ErrKilled) }, recvAny, ErrKilled},
		{"killed/takeAnyOf", func(m *mailbox) { m.closeWith(ErrKilled) }, takeAny, ErrKilled},
		{"killed then closed", func(m *mailbox) { m.closeWith(ErrKilled); m.Close() }, recv, ErrKilled},
		{"dead/recv", func(m *mailbox) { m.markPeerDead(1) }, recv, ErrPeerDead},
		{"dead/recvAnyOf", func(m *mailbox) { m.markPeerDead(1) }, recvAny, ErrPeerDead},
		{"dead/takeAnyOf", func(m *mailbox) { m.markPeerDead(1) }, takeAny, ErrPeerDead},
		{"dead/timeout", func(m *mailbox) { m.markPeerDead(1) }, timed(time.Minute), ErrPeerDead},
		{"timeout", func(m *mailbox) {}, timed(time.Millisecond), ErrTimeout},
		{"timeout/no such rank", func(m *mailbox) {}, func(m *mailbox) error {
			_, err := m.RecvTimeout(nil, -1, tag, time.Millisecond)
			return err
		}, ErrTimeout},
	}
	for _, tc := range cases {
		for _, parked := range []bool{false, true} {
			name := tc.name + "/before"
			if parked {
				name = tc.name + "/while parked"
			}
			t.Run(name, func(t *testing.T) {
				m := newMailbox(nil)
				put(t, m, 1, tag, "delivered first")
				if data, err := m.Recv(nil, 1, tag); err != nil || string(data) != "delivered first" {
					t.Fatalf("queued message: %q, %v", data, err)
				}
				if !parked {
					tc.fail(m)
				}
				done := make(chan error, 1)
				go func() { done <- tc.op(m) }()
				if parked {
					time.Sleep(2 * time.Millisecond)
					tc.fail(m)
				}
				select {
				case err := <-done:
					if !errors.Is(err, tc.want) {
						t.Fatalf("error %v, want %v", err, tc.want)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("receive did not end")
				}
			})
		}
	}
	t.Run("poll and deliver after close", func(t *testing.T) {
		m := newMailbox(nil)
		var b Batch
		if err := m.TakeAnyOf(nil, tag, nil, 0, &b); len(b.Srcs) > 0 || err != nil {
			t.Fatalf("poll on an empty mailbox: %v, %v", b.Srcs, err)
		}
		m.Close()
		if err := m.TakeAnyOf(nil, tag, nil, 0, &b); !errors.Is(err, ErrClosed) {
			t.Fatalf("poll on a closed mailbox: %v, want ErrClosed", err)
		}
		if err := m.deliver(0, tag, []byte("x"), 0); !errors.Is(err, ErrClosed) {
			t.Fatalf("deliver on a closed mailbox: %v, want ErrClosed", err)
		}
	})
	t.Run("queued survives peer death", func(t *testing.T) {
		m := newMailbox(nil)
		put(t, m, 1, tag, "last words")
		m.markPeerDead(1)
		if data, err := m.Recv(nil, 1, tag); err != nil || string(data) != "last words" {
			t.Fatalf("queued message from a dead peer: %q, %v", data, err)
		}
		if err := recv(m); !errors.Is(err, ErrPeerDead) {
			t.Fatalf("error %v, want ErrPeerDead", err)
		}
	})
}

// TestMailboxDelayedLandingOrder pins the delayed path on the simulated
// clock: a message is invisible until its delay has passed, messages of
// one source land in send order across tags, and sources with different
// delays land at their own instants.
func TestMailboxDelayedLandingOrder(t *testing.T) {
	sim := vtime.NewSim()
	m := newMailbox(sim)
	const tag = 5
	sim.Add(1)
	defer sim.Done()
	start := sim.Now()
	send := func(src, tag int, payload string, delay time.Duration) {
		t.Helper()
		if err := m.deliver(src, tag, []byte(payload), delay); err != nil {
			t.Fatal(err)
		}
	}
	send(2, tag, "2a", 30*time.Millisecond)
	send(2, tag+1, "2 other tag", 30*time.Millisecond)
	send(2, tag, "2b", 30*time.Millisecond)
	send(1, tag, "1a", 50*time.Millisecond)
	send(3, tag, "3a", 0)
	var b Batch
	if m.TakeAnyOf(nil, tag, nil, 0, &b); len(b.Data) != 1 || string(b.Data[0]) != "3a" {
		t.Fatalf("undelayed message: %q", b.Data)
	}
	if m.TakeAnyOf(nil, tag, nil, 0, &b); len(b.Data) > 0 {
		t.Fatalf("%q is receivable before its delay has passed", b.Data)
	}
	want := []struct {
		src     int
		payload string
		at      time.Duration
	}{{2, "2a", 30 * time.Millisecond}, {2, "2b", 30 * time.Millisecond}, {1, "1a", 50 * time.Millisecond}}
	for _, w := range want {
		src, data, err := m.RecvAnyOf(context.Background(), tag, nil)
		if err != nil {
			t.Fatal(err)
		}
		if src != w.src || string(data) != w.payload || sim.Now().Sub(start) != w.at {
			t.Fatalf("received %q from %d at %v, want %q from %d at %v",
				data, src, sim.Now().Sub(start), w.payload, w.src, w.at)
		}
	}
	if data, err := m.Recv(nil, 2, tag+1); err != nil || string(data) != "2 other tag" {
		t.Fatalf("other tag: %q, %v", data, err)
	}
}

// regCtx is a cancellable context that counts the callbacks registered
// on it: context.AfterFunc goes through its AfterFunc method, so live()
// is exactly the number of registrations the mailbox still holds.
type regCtx struct {
	mu    sync.Mutex
	done  chan struct{}
	err   error
	next  int
	funcs map[int]func()
}

func newRegCtx() *regCtx {
	return &regCtx{done: make(chan struct{}), funcs: map[int]func(){}}
}

func (c *regCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *regCtx) Done() <-chan struct{}       { return c.done }
func (c *regCtx) Value(any) any               { return nil }

func (c *regCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *regCtx) AfterFunc(f func()) func() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		go f()
		return func() bool { return false }
	}
	id := c.next
	c.next++
	c.funcs[id] = f
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, live := c.funcs[id]
		delete(c.funcs, id)
		return live
	}
}

func (c *regCtx) cancel(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	funcs := c.funcs
	c.funcs = map[int]func(){}
	close(c.done)
	c.mu.Unlock()
	for _, f := range funcs {
		go f()
	}
}

func (c *regCtx) live() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.funcs)
}

// parkedUnder waits until n receives are parked in the mailbox under
// ctx.
func parkedUnder(t *testing.T, m *mailbox, ctx context.Context, n int) {
	t.Helper()
	eventually(t, func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, w := range m.watches {
			if w.done == ctx.Done() {
				return w.parked == n
			}
		}
		return n == 0
	})
}

func eventually(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
	}
}

func watchCount(m *mailbox) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.watches)
}

// boxOf returns the mailbox of an in-process world endpoint.
func boxOf(c *Comm) *mailbox { return c.tr.(*inprocTransport).mailbox }

// mostWatches returns the largest number of watches any mailbox of the
// in-process world holds.
func mostWatches(w *World) int {
	most := 0
	for _, c := range w.Comms() {
		most = max(most, watchCount(boxOf(c)))
	}
	return most
}

// TestMailboxWatchPerContext: two receives parked on one mailbox under
// different contexts — sub-worlds of a shared pool, WrapWorld,
// RecvContext — each keep their own wake-up. Whichever context is
// cancelled first, its receive returns its own error and the other
// stays parked until its own context ends.
func TestMailboxWatchPerContext(t *testing.T) {
	// side is one context and the receives parked under it.
	type side struct {
		name string
		ctx  *regCtx
		err  error
		done []chan error
	}
	for _, bFirst := range []bool{false, true} {
		name := "cancel A first"
		if bFirst {
			name = "cancel B first"
		}
		t.Run(name, func(t *testing.T) {
			m := newMailbox(nil)
			park := func(s *side, recv func() error) {
				done := make(chan error, 1)
				go func() { done <- recv() }()
				s.done = append(s.done, done)
				parkedUnder(t, m, s.ctx, len(s.done))
			}
			a := &side{name: "A", ctx: newRegCtx(), err: errors.New("A cancelled")}
			b := &side{name: "B", ctx: newRegCtx(), err: errors.New("B cancelled")}
			park(a, func() error { _, err := m.Recv(a.ctx, 0, 1); return err })
			park(b, func() error { _, _, err := m.RecvAnyOf(b.ctx, 1, []bool{false, true}); return err })
			// A second receive under A shares A's registration.
			park(a, func() error { _, err := m.Recv(a.ctx, 2, 1); return err })
			if a.ctx.live() != 1 || b.ctx.live() != 1 {
				t.Fatalf("registrations: %d on A, %d on B, want 1 and 1", a.ctx.live(), b.ctx.live())
			}
			first, second := a, b
			if bFirst {
				first, second = b, a
			}
			first.ctx.cancel(first.err)
			for _, done := range first.done {
				if err := <-done; err != first.err {
					t.Fatalf("receive under %s: %v, want %v", first.name, err, first.err)
				}
			}
			// The other context's receives are still parked, still watched.
			parkedUnder(t, m, second.ctx, len(second.done))
			for _, done := range second.done {
				select {
				case err := <-done:
					t.Fatalf("receive under %s ended with %v when %s was cancelled", second.name, err, first.name)
				default:
				}
			}
			second.ctx.cancel(second.err)
			for _, done := range second.done {
				if err := <-done; err != second.err {
					t.Fatalf("receive under %s: %v, want %v", second.name, err, second.err)
				}
			}
			eventually(t, func() bool { return watchCount(m) == 0 })
		})
	}
}

// TestMailboxWatchLifetime: the mailbox keeps the watch on a live
// context across receives (that is what makes parking free), holds at
// most one idle watch, and lets go of every context when it closes.
func TestMailboxWatchLifetime(t *testing.T) {
	m := newMailbox(nil)
	park := func(ctx context.Context, src int) chan error {
		done := make(chan error, 1)
		go func() { _, err := m.Recv(ctx, src, 1); done <- err }()
		return done
	}
	ctxA := newRegCtx()
	for i := 0; i < 3; i++ {
		done := park(ctxA, 0)
		parkedUnder(t, m, ctxA, 1)
		put(t, m, 0, 1, "x")
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if ctxA.live() != 1 || ctxA.next != 1 {
			t.Fatalf("round %d: %d live of %d registrations on a context watched all along, want 1 of 1",
				i, ctxA.live(), ctxA.next)
		}
	}
	// A receive under another context retires the idle watch on A...
	ctxB := newRegCtx()
	doneB := park(ctxB, 0)
	parkedUnder(t, m, ctxB, 1)
	if ctxA.live() != 0 || ctxB.live() != 1 || watchCount(m) != 1 {
		t.Fatalf("after moving to B: %d on A, %d on B, %d watches, want 0, 1, 1", ctxA.live(), ctxB.live(), watchCount(m))
	}
	// ...but never one a receive is parked under.
	doneA := park(ctxA, 2)
	parkedUnder(t, m, ctxA, 1)
	if ctxA.live() != 1 || ctxB.live() != 1 {
		t.Fatalf("both parked: %d on A, %d on B, want 1 and 1", ctxA.live(), ctxB.live())
	}
	m.Close()
	for _, done := range []chan error{doneA, doneB} {
		if err := <-done; !errors.Is(err, ErrClosed) {
			t.Fatalf("parked receive on close: %v, want ErrClosed", err)
		}
	}
	if ctxA.live() != 0 || ctxB.live() != 0 || watchCount(m) != 0 {
		t.Fatalf("after Close: %d on A, %d on B, %d watches, want none", ctxA.live(), ctxB.live(), watchCount(m))
	}
	// A closed mailbox registers nothing.
	if err := <-park(newRegCtx(), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("receive on a closed mailbox: %v", err)
	}
	if watchCount(m) != 0 {
		t.Fatal("a closed mailbox registered a watch")
	}
}

// TestWorldCancelWhileParkedEveryRank: every rank of a section parked in
// a receive nobody will satisfy returns context.Canceled when the
// section's context is cancelled, through world endpoints and through a
// sub-world alike, and the section leaves no watch behind.
func TestWorldCancelWhileParkedEveryRank(t *testing.T) {
	const p = 8
	for _, sub := range []bool{false, true} {
		name := "world"
		if sub {
			name = "sub-world"
		}
		t.Run(name, func(t *testing.T) {
			w, err := Open("inproc", p, TransportOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errs := make([]error, p)
			section := make(chan error, 1)
			go func() {
				section <- w.SPMD(ctx, func(c *Comm) error {
					rank := c.Rank()
					if sub {
						members := make([]int, p)
						for i := range members {
							members[i] = p - 1 - i
						}
						sc, err := c.Sub(members)
						if err != nil {
							return err
						}
						c = sc
					}
					if rank%2 == 0 {
						_, errs[rank] = c.Recv((c.Rank()+1)%p, 3)
					} else {
						_, _, errs[rank] = c.RecvAnyOf(3, nil)
					}
					return errs[rank]
				})
			}()
			eventually(t, func() bool {
				for _, c := range w.Comms() {
					if !sectionParked(boxOf(c), 1) {
						return false
					}
				}
				return true
			})
			cancel()
			if err := <-section; !errors.Is(err, context.Canceled) {
				t.Fatalf("section: %v, want context.Canceled", err)
			}
			for rank, err := range errs {
				if err != context.Canceled {
					t.Errorf("rank %d: %v, want context.Canceled", rank, err)
				}
			}
			eventually(t, func() bool { return mostWatches(w) == 0 })
		})
	}
}

// TestWorldSectionsLeaveNoWatch: a thousand SPMD sections on one world,
// each blocking every rank at least once, leave no watch on any mailbox
// — each section's context is let go when the section ends.
func TestWorldSectionsLeaveNoWatch(t *testing.T) {
	const p = 4
	w, err := Open("inproc", p, TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	most := 0
	for i := 0; i < 1000; i++ {
		err := w.SPMD(context.Background(), func(c *Comm) error {
			if err := c.Barrier(11); err != nil {
				return err
			}
			return c.Barrier(11)
		})
		if err != nil {
			t.Fatal(err)
		}
		most = max(most, mostWatches(w))
	}
	// A section's watch goes when its cancellation callback has run, which
	// may be a moment after SPMD returns: at most the previous section's
	// and this one's exist together.
	if most > 2 {
		t.Errorf("a mailbox held %d watches at once, want at most 2", most)
	}
	eventually(t, func() bool { return mostWatches(w) == 0 })
}

// sectionParked reports whether m has n receives parked under the
// section covering it and holds no watch of its own.
func sectionParked(m *mailbox, n int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.section.done != nil && m.section.parked == n && len(m.watches) == 0
}

// TestWorldSectionWatchesOnce: a p=64 world runs a thousand sections,
// each parking every rank once under the section's context, and the
// section watches that context once, whatever p is. No mailbox
// registers a watch of its own — every parked receive is counted under
// the section's cover — and the caller's context carries exactly one
// registration per section (the section context's link to it), which
// the section lets go when it ends.
func TestWorldSectionWatchesOnce(t *testing.T) {
	const p, sections, tag = 64, 1000, 5
	w, err := Open("inproc", p, TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx := newRegCtx()
	others := make([]int, p-1)
	for i := range others {
		others[i] = i + 1
	}
	// parked waits, on a rank goroutine, for rank's one receive to park.
	parked := func(rank int) error {
		for deadline := time.Now().Add(5 * time.Second); !sectionParked(boxOf(w.Comm(rank)), 1); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				return fmt.Errorf("rank %d never parked under the section's cover", rank)
			}
		}
		return nil
	}
	for i := 0; i < sections; i++ {
		err := w.SPMD(ctx, func(c *Comm) error {
			if c.Rank() != 0 {
				if _, err := c.Recv(0, tag); err != nil {
					return err
				}
				if c.Rank() == 1 {
					// Rank 0 parks in its turn before rank 1 answers.
					if err := parked(0); err != nil {
						return err
					}
					return c.Send(0, tag, nil)
				}
				return nil
			}
			for _, r := range others {
				if err := parked(r); err != nil {
					return err
				}
			}
			if err := c.Multicast(others, tag, nil); err != nil {
				return err
			}
			_, err := c.Recv(1, tag)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if ctx.live() != 0 || ctx.next != i+1 {
			t.Fatalf("after section %d: %d live of %d registrations on the caller's context, want 0 of %d",
				i, ctx.live(), ctx.next, i+1)
		}
	}
	if most := mostWatches(w); most != 0 {
		t.Errorf("a mailbox holds %d watches after the sections, want none", most)
	}
}

// cycledMailbox returns a mailbox that has carried, and delivered,
// messages on tags×srcs distinct (source, tag) streams.
func cycledMailbox(tb testing.TB, tags, srcs int) *mailbox {
	m := newMailbox(nil)
	payload := make([]byte, 64)
	for tag := 0; tag < tags; tag++ {
		for src := 0; src < srcs; src++ {
			if err := m.deliver(src, 0x1000+tag, payload, 0); err != nil {
				tb.Fatal(err)
			}
		}
		for src := 0; src < srcs; src++ {
			_, data, err := m.RecvAnyOf(nil, 0x1000+tag, nil)
			if err != nil {
				tb.Fatal(err)
			}
			m.Release(data)
		}
	}
	return m
}

// receiveRound is one benchmarked receive: one message in, matched
// under mask, its buffer released.
type receiveRound func(m *mailbox, tag int, mask []bool, payload []byte)

// recvAnyOfRound matches the message by RecvAnyOf.
func recvAnyOfRound(m *mailbox, tag int, mask []bool, payload []byte) {
	m.deliver(5, tag, payload, 0)
	_, data, _ := m.RecvAnyOf(nil, tag, mask)
	m.Release(data)
}

// takeAnyOfRound returns the batch-take twin: the message taken under
// the same mask by TakeAnyOf into a batch the round reuses, the batch
// released in one call.
func takeAnyOfRound() receiveRound {
	var b Batch
	return func(m *mailbox, tag int, mask []bool, payload []byte) {
		m.deliver(5, tag, payload, 0)
		m.TakeAnyOf(nil, tag, mask, 1, &b)
		m.Release(b.Data...)
	}
}

// benchmarkReceive measures a matched receive on a tag the mailbox has
// not seen before: on a fresh mailbox, and on one that has already
// cycled 64 tags × 64 sources — the executor's rotating wire tags at
// p=64. The two must cost the same and allocate nothing.
func benchmarkReceive(b *testing.B, round receiveRound) {
	mask := make([]bool, 64)
	mask[5], mask[9] = true, true
	payload := make([]byte, 64)
	for _, bc := range []struct {
		name string
		m    *mailbox
	}{{"fresh", newMailbox(nil)}, {"cycled64x64", cycledMailbox(b, 64, 64)}} {
		b.Run(bc.name, func(b *testing.B) {
			round(bc.m, 1, mask, payload)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round(bc.m, 1, mask, payload)
			}
		})
	}
}

// BenchmarkMailboxRecvAnyOf times one message matched by RecvAnyOf.
func BenchmarkMailboxRecvAnyOf(b *testing.B) { benchmarkReceive(b, recvAnyOfRound) }

// BenchmarkMailboxTakeAnyOf times the same message taken as a batch.
func BenchmarkMailboxTakeAnyOf(b *testing.B) { benchmarkReceive(b, takeAnyOfRound()) }

// TestMailboxReceiveIsHistoryIndependent is the benchmarks' claim as a
// test: a receive, one message at a time or as a batch, costs what is
// waiting, not what was ever sent.
func TestMailboxReceiveIsHistoryIndependent(t *testing.T) {
	if raceEnabled {
		t.Skip("timing and allocation counts are perturbed by the race detector")
	}
	mask := make([]bool, 64)
	mask[5], mask[9] = true, true
	payload := make([]byte, 64)
	const rounds, n = 15, 20000
	for _, rc := range []struct {
		name  string
		round receiveRound
	}{{"RecvAnyOf", recvAnyOfRound}, {"TakeAnyOf", takeAnyOfRound()}} {
		t.Run(rc.name, func(t *testing.T) {
			round := func(m *mailbox) { rc.round(m, 1, mask, payload) }
			timed := func(m *mailbox) time.Duration {
				t0 := time.Now()
				for i := 0; i < n; i++ {
					round(m)
				}
				return time.Since(t0)
			}
			for attempt := 1; ; attempt++ {
				fresh, cycled := newMailbox(nil), cycledMailbox(t, 64, 64)
				for _, m := range []*mailbox{fresh, cycled} {
					round(m)
					if avg := testing.AllocsPerRun(100, func() { round(m) }); avg != 0 {
						t.Fatalf("%.1f allocs per matched receive, want 0", avg)
					}
				}
				// Best of several interleaved rounds, so a descheduled round
				// on a loaded machine does not decide the comparison; a new
				// pair of mailboxes per attempt, so an unlucky heap placement
				// does not.
				bf, bc := timed(fresh), timed(cycled)
				for r := 1; r < rounds; r++ {
					bf, bc = min(bf, timed(fresh)), min(bc, timed(cycled))
				}
				ratio := float64(bc) / float64(bf)
				t.Logf("fresh %v, cycled %v per %d receives (ratio %.2f)", bf, bc, n, ratio)
				if ratio >= 0.8 && ratio <= 1.2 {
					return
				}
				if attempt == 5 {
					t.Fatalf("a receive on a cycled mailbox costs %.2f× one on a fresh mailbox, want within 20%%", ratio)
				}
			}
		})
	}
}

// TestMailboxPoolKeepsLargeBuffersForLargeMessages pins the pool's
// size-aware match: a small message whose receiver never Releases must
// not take the one pooled buffer that fits the next large message, or
// every large message allocates afresh — a checkpoint session's
// snapshot mirror between heartbeats did exactly that.
func TestMailboxPoolKeepsLargeBuffersForLargeMessages(t *testing.T) {
	m := newMailbox(nil)
	large, small := make([]byte, 100<<10), make([]byte, 8)
	recv := func(payload []byte, release bool) *byte {
		t.Helper()
		if err := m.deliver(1, 7, payload, 0); err != nil {
			t.Fatal(err)
		}
		data, err := m.Recv(nil, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		first := &data[:1][0]
		if release {
			m.Release(data)
		}
		return first
	}
	pooled := recv(large, true)
	for i := 0; i < 3; i++ {
		if recv(small, false) == pooled {
			t.Fatal("an 8-byte message was delivered in the pooled 100 kB buffer")
		}
		if recv(large, true) != pooled {
			t.Fatalf("round %d: the large message did not reuse the pooled buffer", i)
		}
	}
	// Control frames of different small sizes still share buffers.
	ctl := recv(make([]byte, 200), true)
	if recv(make([]byte, 24), true) != ctl {
		t.Error("a 24-byte frame did not reuse the pooled 200-byte buffer")
	}
}
