package comm

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"stance/internal/vtime"
)

// These tests pin the batched receive, TakeAnyOf: what one batch takes,
// and the wake rule — a parked batch waiter is woken by the delivery
// that completes its count, by a failure, or by another receive's
// delivery, and by nothing else.

// batchParked reports whether a TakeAnyOf is parked on m as its batch
// waiter and is the only receive parked there.
func batchParked(m *mailbox) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batch.owner != nil && m.waiting == 1
}

func wakes(m *mailbox) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wakeGen
}

// batchOf renders a batch as "src:payload" pairs.
func batchOf(b *Batch) []string {
	out := make([]string, len(b.Srcs))
	for i, src := range b.Srcs {
		out[i] = fmt.Sprintf("%d:%s", src, b.Data[i])
	}
	return out
}

// TestTakeAnyOfWakesOnceForItsLastSource: a batch waiter awaiting k
// sources sleeps through k-1 of their deliveries, and through every
// delivery that cannot count — another tag, a source its mask leaves
// out, a second message from a source already counted — and wakes
// exactly once, for the k-th, taking all k in one batch, sources
// ascending whatever order they arrived in.
func TestTakeAnyOfWakesOnceForItsLastSource(t *testing.T) {
	const tag, k = 7, 5
	m := newMailbox(nil)
	mask := make([]bool, 8)
	for src := 1; src <= k; src++ {
		mask[src] = true
	}
	var b Batch
	done := make(chan error, 1)
	go func() { done <- m.TakeAnyOf(context.Background(), tag, mask, k, &b) }()
	eventually(t, func() bool { return batchParked(m) })
	gen := wakes(m)
	asleep := func(after string) {
		t.Helper()
		if g := wakes(m); g != gen || !batchParked(m) {
			t.Fatalf("after %s: %d wakes, parked %v; want the waiter asleep", after, g-gen, batchParked(m))
		}
	}
	put(t, m, 1, tag+1, "other tag")
	asleep("another tag's message")
	put(t, m, 6, tag, "6a")
	asleep("a message the mask leaves out")
	for src := k; src >= 1; src-- {
		put(t, m, src, tag, fmt.Sprintf("%da", src))
		if src == 3 {
			put(t, m, 3, tag, "3b")
			asleep("a second message from a counted source")
		}
		if src > 1 {
			asleep(fmt.Sprintf("source %d's message", src))
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the last awaited delivery did not wake the waiter")
	}
	if g := wakes(m); g != gen+1 {
		t.Errorf("%d wakes for %d deliveries, want 1", g-gen, k)
	}
	want := []string{"1:1a", "2:2a", "3:3a", "4:4a", "5:5a"}
	if got := batchOf(&b); !slices.Equal(got, want) {
		t.Errorf("batch %v, want %v", got, want)
	}
	// What could not count is still queued.
	if err := m.TakeAnyOf(nil, tag, nil, 0, &b); err != nil || !slices.Equal(batchOf(&b), []string{"3:3b", "6:6a"}) {
		t.Errorf("left queued: %v, %v; want [3:3b 6:6a]", batchOf(&b), err)
	}
}

// TestTakeAnyOfKeepsLaterOpsQueued: the masking rule. A source already
// served belongs to a later operation: its next message neither joins
// the batch nor wakes the waiter still missing other sources, and stays
// queued, in order, for the operation it belongs to.
func TestTakeAnyOfKeepsLaterOpsQueued(t *testing.T) {
	const tag = 9
	m := newMailbox(nil)
	put(t, m, 1, tag, "op1")
	put(t, m, 1, tag, "op2") // source 1 runs an operation ahead
	mask := []bool{false, true, true}
	var b Batch
	if err := m.TakeAnyOf(nil, tag, mask, 2, &b); err != nil || !slices.Equal(batchOf(&b), []string{"1:op1"}) {
		t.Fatalf("first batch %v, %v; want [1:op1]", batchOf(&b), err)
	}
	mask[1] = false
	done := make(chan error, 1)
	go func() { done <- m.TakeAnyOf(nil, tag, mask, 1, &b) }()
	eventually(t, func() bool { return batchParked(m) })
	gen := wakes(m)
	put(t, m, 1, tag, "op3")
	if g := wakes(m); g != gen || !batchParked(m) {
		t.Fatalf("a served source's later message woke the waiter (%d wakes)", g-gen)
	}
	put(t, m, 2, tag, "op1")
	if err := <-done; err != nil || !slices.Equal(batchOf(&b), []string{"2:op1"}) {
		t.Fatalf("second batch %v, %v; want [2:op1]", batchOf(&b), err)
	}
	// The next two operations find source 1's messages in order.
	mask[1], mask[2] = true, true
	for _, want := range []string{"1:op2", "1:op3"} {
		if err := m.TakeAnyOf(nil, tag, mask, 0, &b); err != nil || !slices.Equal(batchOf(&b), []string{want}) {
			t.Fatalf("later operation took %v, %v; want [%s]", batchOf(&b), err, want)
		}
	}
}

// TestTakeAnyOfFailureWakesIncompleteWait: a batch waiter that has only
// part of what it awaits is woken at once by a close, a kill or an
// awaited source's death. The wake hands over what has arrived, and the
// receive for the rest fails with the failure's error.
func TestTakeAnyOfFailureWakesIncompleteWait(t *testing.T) {
	const tag = 11
	cases := []struct {
		name string
		fail func(m *mailbox)
		want error
	}{
		{"closed", func(m *mailbox) { m.Close() }, ErrClosed},
		{"killed", func(m *mailbox) { m.closeWith(ErrKilled) }, ErrKilled},
		{"peer dead", func(m *mailbox) { m.markPeerDead(2) }, ErrPeerDead},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMailbox(nil)
			mask := []bool{false, true, true}
			var b, left Batch
			first, rest := make(chan error, 1), make(chan error, 1)
			go func() {
				err := m.TakeAnyOf(context.Background(), tag, mask, 2, &b)
				first <- err
				if err == nil {
					rest <- m.TakeAnyOf(context.Background(), tag, []bool{false, false, true}, 1, &left)
				}
			}()
			eventually(t, func() bool { return batchParked(m) })
			put(t, m, 1, tag, "1a")
			if !batchParked(m) {
				t.Fatal("the first of two awaited deliveries woke the waiter")
			}
			tc.fail(m)
			select {
			case err := <-first:
				if err != nil || !slices.Equal(batchOf(&b), []string{"1:1a"}) {
					t.Fatalf("woken with %v, %v; want [1:1a]", batchOf(&b), err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the failure did not wake the waiter")
			}
			if err := <-rest; !errors.Is(err, tc.want) {
				t.Fatalf("receive for the rest: %v, want %v", err, tc.want)
			}
		})
	}
	t.Run("peer dead, nothing arrived", func(t *testing.T) {
		// A waiter that cannot count a dead source parks as any receive
		// does: the live source's message still completes it, and only
		// the dead source is left to fail.
		m := newMailbox(nil)
		mask := []bool{false, true, true}
		var b Batch
		first := make(chan error, 1)
		go func() { first <- m.TakeAnyOf(context.Background(), tag, mask, 2, &b) }()
		eventually(t, func() bool { return batchParked(m) })
		m.markPeerDead(2)
		eventually(t, func() bool {
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.waiting == 1 && m.batch.owner == nil
		})
		put(t, m, 1, tag, "1a")
		if err := <-first; err != nil || !slices.Equal(batchOf(&b), []string{"1:1a"}) {
			t.Fatalf("woken with %v, %v; want [1:1a]", batchOf(&b), err)
		}
		if err := m.TakeAnyOf(context.Background(), tag, []bool{false, false, true}, 1, &b); !errors.Is(err, ErrPeerDead) {
			t.Fatalf("receive from the dead source: %v, want ErrPeerDead", err)
		}
	})
}

// TestTakeAnyOfSectionCancelWakesIncompleteWait: cancelling the SPMD
// section's context wakes a batch waiter still missing a source, through
// the section's one watch, and its receive for the rest ends the section
// with context.Canceled.
func TestTakeAnyOfSectionCancelWakesIncompleteWait(t *testing.T) {
	const tag = 13
	w := open(t, "inproc", 3, TransportOptions{})
	box := boxOf(w.Comm(0))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	section := make(chan error, 1)
	go func() {
		section <- w.SPMD(ctx, func(c *Comm) error {
			switch c.Rank() {
			case 0:
				mask := []bool{false, true, true}
				var b Batch
				if err := c.TakeAnyOf(tag, mask, 2, &b); err != nil {
					return err
				}
				if !slices.Equal(batchOf(&b), []string{"1:1a"}) {
					return fmt.Errorf("woken with %v, want [1:1a]", batchOf(&b))
				}
				mask[1] = false
				return c.TakeAnyOf(tag, mask, 1, &b)
			case 1:
				for !batchParked(box) {
					time.Sleep(100 * time.Microsecond)
				}
				return c.Send(0, tag, []byte("1a"))
			}
			return nil
		})
	}()
	eventually(t, func() bool {
		box.mu.Lock()
		defer box.mu.Unlock()
		q := box.tags[tag]
		return q != nil && q.queued == 1 && box.batch.owner != nil && box.waiting == 1
	})
	cancel()
	select {
	case err := <-section:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("section: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelling the section did not wake the waiter")
	}
}

// TestTakeAnyOfBlockedOnSimClock: on a simulated clock a batch waiter
// counts as blocked until its count completes, so the clock runs on
// through the deliveries that do not wake it and the waiter wakes once,
// at the instant the last awaited message lands. A waiter that can
// never complete is a deadlock the stall handler reports.
func TestTakeAnyOfBlockedOnSimClock(t *testing.T) {
	const tag = 15
	t.Run("completes", func(t *testing.T) {
		sim := vtime.NewSim()
		m := newMailbox(sim)
		sim.SetStallHandler(func() { m.Close() })
		sim.Add(1)
		defer sim.Done()
		start := sim.Now()
		for _, d := range []struct {
			src   int
			delay time.Duration
		}{{3, 10 * time.Millisecond}, {1, 20 * time.Millisecond}, {2, 30 * time.Millisecond}} {
			if err := m.deliver(d.src, tag, []byte(fmt.Sprintf("%da", d.src)), d.delay); err != nil {
				t.Fatal(err)
			}
		}
		gen := wakes(m)
		var b Batch
		if err := m.TakeAnyOf(nil, tag, []bool{false, true, true, true}, 3, &b); err != nil {
			t.Fatal(err)
		}
		if got := batchOf(&b); !slices.Equal(got, []string{"1:1a", "2:2a", "3:3a"}) {
			t.Fatalf("batch %v, want all three sources", got)
		}
		if at := sim.Now().Sub(start); at != 30*time.Millisecond {
			t.Errorf("woken at %v, want 30ms", at)
		}
		if g := wakes(m); g != gen+1 {
			t.Errorf("%d wakes, want 1", g-gen)
		}
	})
	t.Run("stalls", func(t *testing.T) {
		sim := vtime.NewSim()
		m := newMailbox(sim)
		stalled := make(chan struct{})
		sim.SetStallHandler(func() {
			close(stalled)
			m.Close()
		})
		sim.Add(1)
		defer sim.Done()
		if err := m.deliver(1, tag, []byte("1a"), 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		var b Batch
		if err := m.TakeAnyOf(nil, tag, []bool{false, true, true}, 2, &b); err != nil || !slices.Equal(batchOf(&b), []string{"1:1a"}) {
			t.Fatalf("woken with %v, %v; want [1:1a]", batchOf(&b), err)
		}
		select {
		case <-stalled:
		default:
			t.Fatal("the waiter woke without the stall handler")
		}
		if err := m.TakeAnyOf(nil, tag, []bool{false, false, true}, 1, &b); !errors.Is(err, ErrClosed) {
			t.Fatalf("receive for the rest: %v, want ErrClosed", err)
		}
	})
}

// TestSubTakeAnyOfReturnsSubRanks: a sub-world's batch names its sources
// in sub-world ranks, ascending although the members' world order is
// not, and leaves a non-member's message on the same tag queued.
func TestSubTakeAnyOfReturnsSubRanks(t *testing.T) {
	const tag = 17
	w := open(t, "inproc", 5, TransportOptions{})
	members := []int{4, 0, 3, 1} // sub rank i is world rank members[i]
	root := boxOf(w.Comm(4))
	queued := func(n int) bool {
		root.mu.Lock()
		defer root.mu.Unlock()
		q := root.tags[tag]
		return q != nil && q.queued == n
	}
	err := w.SPMD(nil, func(c *Comm) error {
		if c.Rank() == 2 {
			return c.Send(4, tag, []byte("noise"))
		}
		sub, err := c.Sub(members)
		if err != nil {
			return err
		}
		if sub.Rank() != 0 {
			return sub.Send(0, tag, []byte(fmt.Sprintf("sub %d", sub.Rank())))
		}
		for !queued(4) {
			time.Sleep(100 * time.Microsecond)
		}
		var b Batch
		if err := sub.TakeAnyOf(tag, nil, 3, &b); err != nil {
			return err
		}
		if got, want := batchOf(&b), []string{"1:sub 1", "2:sub 2", "3:sub 3"}; !slices.Equal(got, want) {
			return fmt.Errorf("batch %v, want %v", got, want)
		}
		sub.Release(b.Data...)
		if data, err := c.Recv(2, tag); err != nil || string(data) != "noise" {
			return fmt.Errorf("non-member message: %q, %v", data, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
