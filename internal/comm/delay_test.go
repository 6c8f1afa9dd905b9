package comm

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"stance/internal/vtime"
)

// simWorld opens an inproc world on a fresh simulated clock.
func simWorld(t *testing.T, p int, model *Model) (*World, *vtime.Sim) {
	t.Helper()
	clk := vtime.NewSim()
	return open(t, "inproc", p, TransportOptions{Model: model, Clock: clk}), clk
}

// TestDelayedDeliveryVirtualSemantics covers Model.Delay on the
// simulated clock with exact assertions instead of wall-clock bounds:
// the sender's virtual time does not move at all (Delay never blocks
// the sender), every message becomes visible exactly Delay after its
// send instant, and per-(source, tag) FIFO ordering survives the
// in-flight window. The test finishes in microseconds of real time no
// matter the delay.
func TestDelayedDeliveryVirtualSemantics(t *testing.T) {
	const delay = 5 * time.Millisecond
	w, clk := simWorld(t, 2, &Model{Delay: delay})

	const n = 10
	epoch := clk.Now()
	err := w.SPMD(nil, func(c *Comm) error {
		if c.Rank() == 0 {
			start := clk.Now()
			for i := 0; i < n; i++ {
				if err := c.Send(1, 7, []byte{byte(i)}); err != nil {
					return err
				}
			}
			if d := clk.Now().Sub(start); d != 0 {
				t.Errorf("sending %d delayed messages advanced the sender's clock by %v; Delay must not block the sender", n, d)
			}
			return nil
		}
		for i := 0; i < n; i++ {
			data, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			// All sends happened at virtual time zero, so every message
			// is delivered exactly at epoch+delay — not before, not
			// after, not approximately.
			if d := clk.Now().Sub(epoch); d != delay {
				t.Errorf("message %d visible at virtual +%v, want exactly %v", i, d, delay)
			}
			if len(data) != 1 || data[0] != byte(i) {
				t.Errorf("message %d carried %v; FIFO order must survive the delay", i, data)
			}
			c.Release(data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDelayedDeliveryVirtualSpacing: sends issued at distinct virtual
// instants (separated by sender-side Latency charges) arrive exactly
// Delay after each send, preserving the inter-message spacing.
func TestDelayedDeliveryVirtualSpacing(t *testing.T) {
	const (
		delay   = 3 * time.Millisecond
		latency = time.Millisecond
	)
	w, clk := simWorld(t, 2, &Model{Delay: delay, Latency: latency})
	epoch := clk.Now()
	const n = 4
	err := w.SPMD(nil, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 3, []byte{byte(i)}); err != nil {
					return err
				}
			}
			// Each send charges exactly the latency to the sender.
			if d := clk.Now().Sub(epoch); d != n*latency {
				t.Errorf("%d sends advanced the sender by %v, want exactly %v", n, d, n*latency)
			}
			return nil
		}
		for i := 0; i < n; i++ {
			data, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			// Message i leaves the wire after i+1 latency charges and
			// lands Delay later.
			want := time.Duration(i+1)*latency + delay
			if d := clk.Now().Sub(epoch); d != want {
				t.Errorf("message %d visible at virtual +%v, want exactly %v", i, d, want)
			}
			c.Release(data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDelayedDeliveryFIFOReal runs the one delayed-delivery path on the
// real clock through every medium: an inproc pair, a socket pair, and
// both routes of a hybrid world (shared memory inside a group, sockets
// between groups). Everything is structural except one load-safe,
// one-sided bound: all sends return before any receive is even posted
// (the sender never waits for the delay), FIFO order survives the
// in-flight window whatever order the timer goroutines run in, and the
// first message is not visible earlier than Delay after its send. The
// exact timings belong to the virtual twins above.
func TestDelayedDeliveryFIFOReal(t *testing.T) {
	const delay = 20 * time.Millisecond
	twoGroups, err := ContiguousGroups(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, transport string
		p, dst          int
		opts            TransportOptions
	}{
		{"inproc", "inproc", 2, 1, TransportOptions{Model: &Model{Delay: delay}}},
		{"tcp", "tcp", 2, 1, TransportOptions{Model: &Model{Delay: delay}}},
		{"hybrid inter-group", "hybrid", 4, 2, TransportOptions{Topology: twoGroups, InterModel: &Model{Delay: delay}}},
		{"hybrid intra-group", "hybrid", 4, 1, TransportOptions{Topology: twoGroups, Model: &Model{Delay: delay}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := Open(tc.transport, tc.p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			const n = 10
			start := time.Now()
			for i := 0; i < n; i++ {
				if err := w.Comm(0).Send(tc.dst, 7, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			recv := w.Comm(tc.dst)
			for i := 0; i < n; i++ {
				data, err := recv.RecvContext(ctx, 0, 7)
				if err != nil {
					t.Fatalf("message %d: %v", i, err)
				}
				if d := time.Since(start); i == 0 && d < delay {
					t.Errorf("first message visible %v after its send; must not beat the %v delay", d, delay)
				}
				if len(data) != 1 || data[0] != byte(i) {
					t.Errorf("message %d carried %v; FIFO order must survive the delay", i, data)
				}
				recv.Release(data)
			}
		})
	}
}

// TestSendAfterCloseFailsLoudly: a send to a closed world returns
// ErrClosed on every medium and clock, delayed or not, however many
// times it is tried — it neither reports success for a message nobody
// can receive nor parks the sender on a delivery path that has shut
// down. The context deadline turns a hang into a failure.
func TestSendAfterCloseFailsLoudly(t *testing.T) {
	delayed := &Model{Delay: time.Millisecond}
	cases := []struct {
		name, transport string
		opts            TransportOptions
	}{
		{"inproc free", "inproc", TransportOptions{}},
		{"inproc delay real clock", "inproc", TransportOptions{Model: delayed}},
		{"inproc delay sim clock", "inproc", TransportOptions{Model: delayed, Clock: vtime.NewSim()}},
		{"tcp", "tcp", TransportOptions{}},
		{"tcp delay", "tcp", TransportOptions{Model: delayed}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := Open(tc.transport, 2, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() {
				for i := 0; i < 2000; i++ {
					if err := w.Comm(0).Send(1, 7, []byte{1}); !errors.Is(err, ErrClosed) {
						done <- fmt.Errorf("send %d after Close returned %v, want ErrClosed", i, err)
						return
					}
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-ctx.Done():
				t.Fatal("a send after Close hung")
			}
		})
	}
}

// TestDelayedDeliveryMaskedRecv: the arrival-order executor drain
// works unchanged on a delayed medium, real or virtual.
func TestDelayedDeliveryMaskedRecv(t *testing.T) {
	run := func(t *testing.T, w *World) {
		err := w.SPMD(nil, func(c *Comm) error {
			if c.Rank() == 0 {
				mask := []bool{false, true, true}
				got := map[int]bool{}
				for i := 0; i < 2; i++ {
					src, data, err := c.RecvAnyOf(9, mask)
					if err != nil {
						return err
					}
					if got[src] {
						t.Errorf("received twice from rank %d", src)
					}
					got[src] = true
					mask[src] = false
					c.Release(data)
				}
				return nil
			}
			return c.Send(0, 9, []byte{byte(c.Rank())})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Run("real", func(t *testing.T) {
		run(t, open(t, "inproc", 3, TransportOptions{Model: &Model{Delay: time.Millisecond}}))
	})
	t.Run("virtual", func(t *testing.T) {
		w, _ := simWorld(t, 3, &Model{Delay: time.Millisecond})
		run(t, w)
	})
}

// TestVirtualRankErrorCancelsInsteadOfStalling: a rank failing while a
// peer is blocked in a virtual-time receive must tear the section down
// through the SPMD context — not trip the clock's deadlock detector.
// The cancellation wakeup travels outside the clock (a context
// AfterFunc goroutine), so for a moment the counts look like a stall;
// the detector's grace window exists exactly for this.
func TestVirtualRankErrorCancelsInsteadOfStalling(t *testing.T) {
	w, _ := simWorld(t, 2, nil)
	wantErr := errors.New("rank 1 exploded")
	done := make(chan error, 1)
	go func() {
		done <- w.SPMD(nil, func(c *Comm) error {
			if c.Rank() == 0 {
				_, err := c.Recv(1, 5) // rank 1 never sends
				return err
			}
			return wantErr
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, wantErr) {
			t.Fatalf("section error %v does not include the failing rank's error", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked rank was not unwound by cancellation: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("section hung: rank error did not cancel the virtual-time receive")
	}
}

// TestVirtualRecvTimeout: on the simulated clock a receive deadline
// fires at the exact virtual instant, and a message scheduled before
// the deadline beats it.
func TestVirtualRecvTimeout(t *testing.T) {
	w, clk := simWorld(t, 2, &Model{Delay: 2 * time.Millisecond})
	epoch := clk.Now()
	err := w.SPMD(nil, func(c *Comm) error {
		if c.Rank() == 1 {
			// First: time out with nothing in flight.
			if _, err := c.RecvTimeout(0, 5, time.Millisecond); err != ErrTimeout {
				t.Errorf("RecvTimeout with nothing in flight: %v, want ErrTimeout", err)
			}
			if d := clk.Now().Sub(epoch); d != time.Millisecond {
				t.Errorf("timeout fired at virtual +%v, want exactly 1ms", d)
			}
			// Tell the sender to go, then wait with a deadline beyond
			// the delivery delay: the message must win.
			if err := c.Send(0, 6, nil); err != nil {
				return err
			}
			data, err := c.RecvTimeout(0, 5, 50*time.Millisecond)
			if err != nil {
				return err
			}
			c.Release(data)
			return nil
		}
		if _, err := c.Recv(1, 6); err != nil {
			return err
		}
		return c.Send(1, 5, []byte{1})
	})
	if err != nil {
		t.Fatal(err)
	}
}
