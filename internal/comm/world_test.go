package comm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestWorldRegistry exercises transport lookup: the built-ins are
// registered, unknown names fail with the available names, and a
// custom factory plugs in by name.
func TestWorldRegistry(t *testing.T) {
	names := Transports()
	has := func(want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	if !has("inproc") || !has("tcp") {
		t.Fatalf("Transports() = %v, want inproc and tcp", names)
	}

	if _, err := Open("bogus", 2, TransportOptions{}); err == nil {
		t.Fatal("Open(bogus) succeeded")
	} else if !strings.Contains(err.Error(), "inproc") {
		t.Errorf("Open(bogus) error %q does not list registered transports", err)
	}

	if !has("test-custom") { // the registry is process-wide: -count=2 runs this twice
		RegisterTransport("test-custom", func(p int, opts TransportOptions) ([]*Comm, func() error, error) {
			comms, err := newInprocWorld(p, TransportOptions{Model: opts.Model})
			return comms, nil, err
		})
	}
	w, err := Open("test-custom", 3, TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Size() != 3 || w.Transport() != "test-custom" {
		t.Errorf("world = size %d transport %q", w.Size(), w.Transport())
	}
}

func TestRegisterTransportDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	RegisterTransport("inproc", func(p int, opts TransportOptions) ([]*Comm, func() error, error) {
		return nil, nil, nil
	})
}

// TestWorldSPMDRoundTrip checks the basic World lifecycle: open, run a
// ring exchange under SPMD, collect stats, close.
func TestWorldSPMDRoundTrip(t *testing.T) {
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			w, err := Open(transport, 3, TransportOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			err = w.SPMD(context.Background(), func(c *Comm) error {
				next := (c.Rank() + 1) % c.Size()
				prev := (c.Rank() + c.Size() - 1) % c.Size()
				if err := c.Send(next, 7, []byte{byte(c.Rank())}); err != nil {
					return err
				}
				data, err := c.Recv(prev, 7)
				if err != nil {
					return err
				}
				if len(data) != 1 || int(data[0]) != prev {
					return fmt.Errorf("rank %d received %v from %d", c.Rank(), data, prev)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			msgs, bytes := w.Stats()
			if msgs != 3 || bytes != 3 {
				t.Errorf("Stats() = %d msgs, %d bytes, want 3, 3", msgs, bytes)
			}
		})
	}
}

// TestWorldCancelUnblocksRecv is the acceptance test for context
// cancellation: a Recv with no matching sender must return
// context.Canceled once the SPMD context is cancelled, instead of
// deadlocking.
func TestWorldCancelUnblocksRecv(t *testing.T) {
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			w, err := Open(transport, 2, TransportOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			done := make(chan error, 1)
			go func() {
				done <- w.SPMD(ctx, func(c *Comm) error {
					if c.Rank() != 0 {
						return nil // rank 1 never sends
					}
					_, err := c.Recv(1, 42)
					return err
				})
			}()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("SPMD error = %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancelled Recv did not unblock")
			}
		})
	}
}

// TestWorldCancelUnblocksRecvTimeout: a timed receive is a blocking
// receive like any other, so a rank failing mid-section cancels a peer
// parked in RecvTimeout at once, with context.Canceled, instead of
// leaving it to sit out its deadline and report ErrTimeout. It holds
// through a sub-world, whose timed receive waits in the parent
// endpoint's mailbox.
func TestWorldCancelUnblocksRecvTimeout(t *testing.T) {
	for _, sub := range []bool{false, true} {
		name := "world"
		if sub {
			name = "sub-world"
		}
		t.Run(name, func(t *testing.T) {
			w, err := Open("inproc", 3, TransportOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			boom := errors.New("rank 0 failed")
			var timed error
			start := time.Now()
			err = w.SPMD(context.Background(), func(c *Comm) error {
				if sub {
					sc, err := c.Sub([]int{2, 1, 0})
					if err != nil {
						return err
					}
					c = sc
				}
				switch c.WorldRank() {
				case 0:
					time.Sleep(10 * time.Millisecond)
					return boom
				case 1:
					_, timed = c.RecvTimeout(c.Rank()+1, 9, 3*time.Second) // nobody sends
					return timed
				}
				return nil
			})
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("section took %v: the timed receive sat out its deadline", elapsed)
			}
			if !errors.Is(err, boom) {
				t.Errorf("section error %v does not carry rank 0's", err)
			}
			if timed != context.Canceled {
				t.Errorf("timed receive: %v, want context.Canceled", timed)
			}
		})
	}
}

// TestWorldCancelUnblocksCollective checks that cancellation also tears
// down a collective mid-flight: rank 0 waits in a barrier no one else
// joins.
func TestWorldCancelUnblocksCollective(t *testing.T) {
	w, err := Open("inproc", 3, TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err = w.SPMD(ctx, func(c *Comm) error {
		if c.Rank() == 2 {
			return nil // never enters the barrier
		}
		return c.Barrier(9)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SPMD error = %v, want context.Canceled", err)
	}
}

// TestWorldPreCancelledContext: SPMD under an already-cancelled context
// must refuse to run.
func TestWorldPreCancelledContext(t *testing.T) {
	w, err := Open("inproc", 2, TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err = w.SPMD(ctx, func(c *Comm) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SPMD error = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("SPMD body ran under a cancelled context")
	}
}

// TestWorldDoubleClose: Close must be idempotent, and a closed world
// must fail SPMD and pending receives with ErrClosed.
func TestWorldDoubleClose(t *testing.T) {
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			w, err := Open(transport, 2, TransportOptions{})
			if err != nil {
				t.Fatal(err)
			}
			first := w.Close()
			second := w.Close()
			if first != nil {
				t.Errorf("first Close = %v", first)
			}
			if !errors.Is(second, first) && second != first {
				t.Errorf("second Close = %v, want first call's result %v", second, first)
			}
			if err := w.SPMD(context.Background(), func(c *Comm) error { return nil }); !errors.Is(err, ErrClosed) {
				t.Errorf("SPMD after Close = %v, want ErrClosed", err)
			}
			if _, err := w.Comm(0).Recv(1, 1); !errors.Is(err, ErrClosed) {
				t.Errorf("Recv after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestWorldRankFailureUnblocksPeers: when one rank's function fails —
// by returning an error, or by ending its goroutine (runtime.Goexit, as
// t.Fatal does) — peers blocked waiting for its messages must unwind
// with an error naming the rank instead of deadlocking the section, and
// the next section on the world must still run.
func TestWorldRankFailureUnblocksPeers(t *testing.T) {
	bang := errors.New("rank 1 exploded")
	for _, tc := range []struct {
		name string
		fail func() error
		want error
	}{
		{"error", func() error { return bang }, bang},
		{"Goexit", func() error { runtime.Goexit(); return nil }, errGoexit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := Open("inproc", 3, TransportOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			done := make(chan error, 1)
			go func() {
				done <- w.SPMD(context.Background(), func(c *Comm) error {
					if c.Rank() == 1 {
						return tc.fail()
					}
					_, err := c.Recv(1, 11) // rank 1 never sends
					return err
				})
			}()
			select {
			case err := <-done:
				if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), "rank 1: ") {
					t.Fatalf("SPMD error %v does not include rank 1's failure", err)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("SPMD error %v: peers did not unwind with context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("rank failure left peers deadlocked")
			}
			// The section's internal cancellation must not poison the world.
			if err := w.SPMD(context.Background(), func(c *Comm) error { return c.Barrier(1) }); err != nil {
				t.Fatalf("SPMD after failed section: %v", err)
			}
		})
	}
}

// TestWorldConcurrentSPMDRejected: a second SPMD section on a busy
// world must fail instead of racing on the context binding.
func TestWorldConcurrentSPMDRejected(t *testing.T) {
	w, err := Open("inproc", 2, TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- w.SPMD(context.Background(), func(c *Comm) error {
			if c.Rank() == 0 {
				close(entered)
				<-release
			}
			return nil
		})
	}()
	<-entered
	if err := w.SPMD(context.Background(), func(c *Comm) error { return nil }); err == nil {
		t.Error("concurrent SPMD section accepted")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The world is reusable once the first section has joined.
	if err := w.SPMD(context.Background(), func(c *Comm) error { return nil }); err != nil {
		t.Fatalf("SPMD after section finished: %v", err)
	}
}

// TestWorldCloseUnblocksRecv: closing the world must fail a pending
// receive rather than leaving it blocked forever.
func TestWorldCloseUnblocksRecv(t *testing.T) {
	w, err := Open("inproc", 2, TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := w.Comm(0).Recv(1, 5)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the pending Recv")
	}
}

// TestWorldRankGoroutines: a world runs its sections on one goroutine
// per rank, which Close ends — also when Close comes while a section is
// running — and a rank body that ends its goroutine (runtime.Goexit, as
// t.FailNow does) leaves a rank the next section still finds.
func TestWorldRankGoroutines(t *testing.T) {
	const p = 4
	settled := func(before int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), before)
			}
		}
	}
	t.Run("sections reuse them", func(t *testing.T) {
		before := runtime.NumGoroutine()
		w, err := Open("inproc", p, TransportOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := w.SPMD(context.Background(), func(c *Comm) error { return c.Barrier(1) }); err != nil {
				t.Fatal(err)
			}
		}
		// Rank 2 ends its goroutine mid-section, which fails the section.
		err = w.SPMD(context.Background(), func(c *Comm) error {
			if c.Rank() == 2 {
				runtime.Goexit()
			}
			return nil
		})
		if !errors.Is(err, errGoexit) {
			t.Fatalf("section with a Goexit rank returned %v", err)
		}
		ran := make([]bool, p)
		if err := w.SPMD(context.Background(), func(c *Comm) error { ran[c.Rank()] = true; return c.Barrier(1) }); err != nil {
			t.Fatal(err)
		}
		for r, ok := range ran {
			if !ok {
				t.Errorf("rank %d did not run the section after a Goexit", r)
			}
		}
		w.Close()
		settled(before)
	})
	t.Run("close during a section", func(t *testing.T) {
		before := runtime.NumGoroutine()
		w, err := Open("inproc", p, TransportOptions{})
		if err != nil {
			t.Fatal(err)
		}
		section := make(chan error, 1)
		go func() {
			section <- w.SPMD(context.Background(), func(c *Comm) error {
				_, err := c.Recv((c.Rank()+1)%p, 2) // nobody sends
				return err
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
		w.Close()
		if err := <-section; !errors.Is(err, ErrClosed) {
			t.Fatalf("section: %v, want ErrClosed", err)
		}
		settled(before)
	})
}

// BenchmarkSPMDSection times one SPMD section on an in-process world,
// the fixed cost a session Run pays around its iterations: with an
// empty body (goroutines, join, the section's one cancellation watch),
// one Barrier (a linear rank-0 fan-in and release), and one parked
// receive per rank: a token passed once round the ring against the
// order the ranks start in, so each rank, rank 0 included, is waiting
// under the section's context well before the token reaches it.
func BenchmarkSPMDSection(b *testing.B) {
	const tag = 7
	bodies := []struct {
		name string
		f    func(c *Comm) error
	}{
		{"empty", func(c *Comm) error { return nil }},
		{"barrier", func(c *Comm) error { return c.Barrier(tag) }},
		{"ring", func(c *Comm) error {
			p, r := c.Size(), c.Rank()
			if r == 0 {
				if err := c.Send(p-1, tag, nil); err != nil {
					return err
				}
			}
			data, err := c.Recv((r+1)%p, tag)
			if err != nil {
				return err
			}
			c.Release(data)
			if r == 0 {
				return nil
			}
			return c.Send(r-1, tag, nil)
		}},
	}
	for _, p := range []int{4, 64} {
		w, err := Open("inproc", p, TransportOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, body := range bodies {
			b.Run(fmt.Sprintf("p=%d/%s", p, body.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := w.SPMD(context.Background(), body.f); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		w.Close()
	}
}
