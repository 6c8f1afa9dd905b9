package comm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// open opens a p-rank world and closes it when the test ends.
func open(t testing.TB, transport string, p int, opts TransportOptions) *World {
	t.Helper()
	w, err := Open(transport, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// worlds returns both transports' worlds for transport-agnostic tests.
func worlds(t *testing.T, p int) map[string]*World {
	t.Helper()
	return map[string]*World{
		"inproc": open(t, "inproc", p, TransportOptions{}),
		"tcp":    open(t, "tcp", p, TransportOptions{}),
	}
}

func TestSendRecvBothTransports(t *testing.T) {
	for name, w := range worlds(t, 2) {
		t.Run(name, func(t *testing.T) {
			err := w.SPMD(nil, func(c *Comm) error {
				if c.Rank() == 0 {
					if err := c.Send(1, 7, []byte("hello")); err != nil {
						return err
					}
					got, err := c.Recv(1, 8)
					if err != nil {
						return err
					}
					if string(got) != "world" {
						return fmt.Errorf("got %q", got)
					}
					return nil
				}
				got, err := c.Recv(0, 7)
				if err != nil {
					return err
				}
				if string(got) != "hello" {
					return fmt.Errorf("got %q", got)
				}
				return c.Send(0, 8, []byte("world"))
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFIFOPerSourceTag(t *testing.T) {
	for name, w := range worlds(t, 2) {
		t.Run(name, func(t *testing.T) {
			const n = 200
			err := w.SPMD(nil, func(c *Comm) error {
				if c.Rank() == 0 {
					for i := 0; i < n; i++ {
						if err := c.Send(1, 5, []byte{byte(i)}); err != nil {
							return err
						}
					}
					return nil
				}
				for i := 0; i < n; i++ {
					got, err := c.Recv(0, 5)
					if err != nil {
						return err
					}
					if got[0] != byte(i) {
						return fmt.Errorf("message %d arrived out of order (got %d)", i, got[0])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTagsDoNotInterfere(t *testing.T) {
	w := open(t, "inproc", 2, TransportOptions{})
	err := w.SPMD(nil, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("a")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("b"))
		}
		// Receive in reverse tag order.
		b, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		a, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(a) != "a" || string(b) != "b" {
			return fmt.Errorf("tag mixup: %q %q", a, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnyPrefersLowestRank(t *testing.T) {
	w := open(t, "inproc", 3, TransportOptions{})
	// Ranks 1 and 2 send; rank 0 waits until both arrived, then
	// receives twice: must get rank 1 first.
	var wg sync.WaitGroup
	wg.Add(2)
	for r := 1; r <= 2; r++ {
		go func(r int) {
			defer wg.Done()
			if err := w.Comm(r).Send(0, 9, []byte{byte(r)}); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
	// Both messages are now in the mailbox.
	src1, d1, err := w.Comm(0).RecvAny(9)
	if err != nil {
		t.Fatal(err)
	}
	src2, d2, err := w.Comm(0).RecvAny(9)
	if err != nil {
		t.Fatal(err)
	}
	if src1 != 1 || src2 != 2 || d1[0] != 1 || d2[0] != 2 {
		t.Fatalf("RecvAny order: %d %d", src1, src2)
	}
}

func TestSendBufferReuse(t *testing.T) {
	w := open(t, "inproc", 2, TransportOptions{})
	buf := []byte{1, 2, 3}
	if err := w.Comm(0).Send(1, 1, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // mutate after send
	got, err := w.Comm(1).Recv(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Error("send did not copy the buffer")
	}
}

func TestSendRecvBounds(t *testing.T) {
	w := open(t, "inproc", 2, TransportOptions{})
	if err := w.Comm(0).Send(2, 0, nil); err == nil {
		t.Error("send to rank 2 of 2 accepted")
	}
	if _, err := w.Comm(0).Recv(-1, 0); err == nil {
		t.Error("recv from rank -1 accepted")
	}
	if err := w.Comm(0).Multicast([]int{0, 5}, 0, nil); err == nil {
		t.Error("multicast to bad rank accepted")
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	w := open(t, "inproc", 2, TransportOptions{})
	done := make(chan error, 1)
	go func() {
		_, err := w.Comm(0).Recv(1, 1)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	w.Comm(0).Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
	w.Close()
}

func TestRecvTimeout(t *testing.T) {
	w := open(t, "inproc", 2, TransportOptions{})
	start := time.Now()
	_, err := w.Comm(0).RecvTimeout(1, 1, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Error("timeout returned too early")
	}
	// A message that is already there is returned immediately.
	if err := w.Comm(1).Send(0, 2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, err := w.Comm(0).RecvTimeout(1, 2, time.Second)
	if err != nil || string(got) != "x" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestStatsCounting(t *testing.T) {
	w := open(t, "inproc", 3, TransportOptions{})
	w.Comm(0).Send(1, 1, make([]byte, 10))
	w.Comm(0).Send(2, 1, make([]byte, 5))
	msgs, bytes := w.Comm(0).Stats()
	if msgs != 2 || bytes != 15 {
		t.Errorf("stats = %d msgs %d bytes, want 2/15", msgs, bytes)
	}
	// A multicast on a free network (no model) counts one copy.
	w.Comm(1).Multicast([]int{0, 2}, 1, make([]byte, 8))
	msgs, bytes = w.Comm(1).Stats()
	if msgs != 1 || bytes != 8 {
		t.Errorf("multicast stats = %d msgs %d bytes, want 1/8", msgs, bytes)
	}
}

func TestModelCost(t *testing.T) {
	m := Ethernet(1)
	// 1 ms latency + 1250 bytes at 1.25 MB/s = 1 ms.
	d := m.cost(1250)
	if d < 1900*time.Microsecond || d > 2100*time.Microsecond {
		t.Errorf("Ethernet cost(1250B) = %v, want ~2ms", d)
	}
	var free *Model
	if free.cost(1e6) != 0 {
		t.Error("nil model should be free")
	}
	fast := Ethernet(0.1)
	if fast.cost(1250) >= d {
		t.Error("scaled-down model should be cheaper")
	}
}

// TestCheckEthernetScale: every scale Ethernet would panic on is an
// error from the validator the CLIs and examples call first, and
// Ethernet's panic is that error — the rule is written once.
func TestCheckEthernetScale(t *testing.T) {
	for _, c := range []struct {
		v  float64
		ok bool
	}{
		{0, false},
		{-1, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{1e-4, true},
		{1, true},
	} {
		err := CheckEthernetScale(c.v)
		if (err == nil) != c.ok {
			t.Errorf("CheckEthernetScale(%g) = %v, want ok=%v", c.v, err, c.ok)
		}
		func() {
			defer func() {
				if r := recover(); (r == nil) != c.ok || (err != nil && r != "comm: "+err.Error()) {
					t.Errorf("Ethernet(%g) panicked with %v, validator said %v", c.v, r, err)
				}
			}()
			Ethernet(c.v)
		}()
	}
}

// Ethernet used to silently default a non-positive scale to 1, so a
// miscomputed scale (0, a negated value, NaN from 0/0) produced a
// model the caller never asked for — or, for NaN and +Inf, a garbage
// bandwidth. An invalid scale is a configuration bug and must panic.
func TestEthernetInvalidScalePanics(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Ethernet(%g) did not panic", scale)
				}
			}()
			Ethernet(scale)
		}()
	}
	// -Inf is caught by the same non-positive check.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Ethernet(-Inf) did not panic")
			}
		}()
		Ethernet(math.Inf(-1))
	}()
}

// cost must saturate instead of wrapping: a huge byte count over a tiny
// bandwidth converts to a float beyond MaxInt64, and a raw
// time.Duration conversion would come out negative on most
// architectures — a negative sleep, i.e. a free message, exactly where
// the model should be at its most expensive.
func TestModelCostSaturates(t *testing.T) {
	slow := &Model{Bandwidth: 1e-12}
	if d := slow.cost(1 << 30); d != maxCost {
		t.Errorf("cost with overflowing transfer term = %v, want saturation at %v", d, maxCost)
	}
	// Saturation on the latency + transfer sum, not just the term.
	m := &Model{Latency: maxCost - time.Nanosecond, Bandwidth: 1}
	if d := m.cost(1); d != maxCost {
		t.Errorf("cost with overflowing sum = %v, want saturation at %v", d, maxCost)
	}
	if d := (&Model{Latency: -time.Second}).cost(0); d != 0 {
		t.Errorf("negative latency cost = %v, want clamp to 0", d)
	}
	if d := (&Model{Latency: time.Millisecond, Bandwidth: math.NaN()}).cost(100); d != time.Millisecond {
		t.Errorf("NaN bandwidth cost = %v, want latency-only pricing", d)
	}
}

func TestModelSlowsSends(t *testing.T) {
	model := &Model{Latency: 5 * time.Millisecond}
	w := open(t, "inproc", 2, TransportOptions{Model: model})
	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := w.Comm(0).Send(1, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("4 sends took %v, want >= 20ms of modeled latency", elapsed)
	}
}

func TestSharedMediumSerializesSenders(t *testing.T) {
	// Two workstations transmitting concurrently on the modeled shared
	// Ethernet must take twice as long as one: the medium is a single
	// wire, not a switch.
	model := &Model{Latency: 20 * time.Millisecond}
	w := open(t, "inproc", 3, TransportOptions{Model: model})
	start := time.Now()
	var wg sync.WaitGroup
	for _, sender := range []int{0, 1} {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			if err := w.Comm(sender).Send(2, 1, nil); err != nil {
				t.Error(err)
			}
		}(sender)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 38*time.Millisecond {
		t.Errorf("two concurrent sends took %v, want >= 2 wire charges (40ms)", elapsed)
	}
}

func TestMulticastChargesOnce(t *testing.T) {
	model := &Model{Latency: 10 * time.Millisecond, Multicast: true}
	w := open(t, "inproc", 4, TransportOptions{Model: model})
	start := time.Now()
	if err := w.Comm(0).Multicast([]int{1, 2, 3}, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 25*time.Millisecond {
		t.Errorf("multicast took %v, want ~1 latency charge", elapsed)
	}
	for r := 1; r <= 3; r++ {
		got, err := w.Comm(r).Recv(0, 1)
		if err != nil || string(got) != "x" {
			t.Fatalf("rank %d: %q, %v", r, got, err)
		}
	}
	// Without the capability, each destination pays.
	noMC := &Model{Latency: 10 * time.Millisecond, Multicast: false}
	w2 := open(t, "inproc", 4, TransportOptions{Model: noMC})
	start = time.Now()
	if err := w2.Comm(0).Multicast([]int{1, 2, 3}, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 28*time.Millisecond {
		t.Errorf("non-multicast medium took %v, want >= 3 latency charges", elapsed)
	}
}

// TestMulticastCountsCopies: Stats counts the copies the medium
// carried — one on a medium that multicasts, one per destination on a
// medium that does not (as tcp's point-to-point fallback counts),
// summed over the media of a two-level world — and a sub-world counts
// what its parent does.
func TestMulticastCountsCopies(t *testing.T) {
	payload := []byte("four")
	for _, tc := range []struct {
		name     string
		opts     TransportOptions
		groups   []int // nil: a flat world of 4
		dsts     []int
		wantMsgs int64
	}{
		{"free network", TransportOptions{}, nil, []int{1, 2, 3}, 1},
		{"multicast medium", TransportOptions{Model: &Model{Multicast: true}}, nil, []int{1, 2, 3}, 1},
		{"point-to-point medium", TransportOptions{Model: &Model{}}, nil, []int{1, 2, 3}, 3},
		// Two intra-group destinations share one multicast; each of the
		// three across the non-multicast backbone is a copy.
		{"two-level", TransportOptions{Model: &Model{Multicast: true}, InterModel: &Model{}},
			[]int{0, 0, 0, 1, 1, 1}, []int{1, 2, 3, 4, 5}, 1 + 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts, p := tc.opts, 4
			if tc.groups != nil {
				topo, err := NewTopology(tc.groups)
				if err != nil {
					t.Fatal(err)
				}
				opts.Topology, p = topo, len(tc.groups)
			}
			w := open(t, "inproc", p, opts)
			if err := w.Comm(0).Multicast(tc.dsts, 1, payload); err != nil {
				t.Fatal(err)
			}
			msgs, bytes := w.Comm(0).Stats()
			if want := tc.wantMsgs; msgs != want || bytes != want*int64(len(payload)) {
				t.Errorf("stats = %d msgs / %d bytes, want %d/%d", msgs, bytes, want, want*int64(len(payload)))
			}
		})
	}
	t.Run("sub-world", func(t *testing.T) {
		w := open(t, "inproc", 4, TransportOptions{Model: &Model{}})
		var sub *Comm
		err := w.SPMD(nil, func(c *Comm) error {
			if c.Rank() != 0 {
				return nil
			}
			var err error
			if sub, err = c.Sub([]int{0, 2, 3}); err != nil {
				return err
			}
			return sub.Multicast([]int{1, 2}, 1, payload)
		})
		if err != nil {
			t.Fatal(err)
		}
		subMsgs, _ := sub.Stats()
		rootMsgs, _ := w.Comm(0).Stats()
		if subMsgs != 2 || rootMsgs != 2 {
			t.Errorf("sub-world multicast to 2 counts %d on the sub-world and %d on the root, want 2 and 2", subMsgs, rootMsgs)
		}
	})
}

func TestBarrier(t *testing.T) {
	for name, w := range worlds(t, 4) {
		t.Run(name, func(t *testing.T) {
			var counter sync.Map
			err := w.SPMD(nil, func(c *Comm) error {
				for round := 0; round < 3; round++ {
					counter.Store(fmt.Sprintf("%d-%d", round, c.Rank()), true)
					if err := c.Barrier(100); err != nil {
						return err
					}
					// After the barrier, every rank's mark for this
					// round must be visible.
					for r := 0; r < c.Size(); r++ {
						if _, ok := counter.Load(fmt.Sprintf("%d-%d", round, r)); !ok {
							return fmt.Errorf("rank %d passed barrier before rank %d arrived", c.Rank(), r)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBcast(t *testing.T) {
	for name, w := range worlds(t, 4) {
		t.Run(name, func(t *testing.T) {
			err := w.SPMD(nil, func(c *Comm) error {
				var payload []byte
				if c.Rank() == 2 {
					payload = []byte("broadcast")
				}
				got, err := c.Bcast(2, 101, payload)
				if err != nil {
					return err
				}
				if string(got) != "broadcast" {
					return fmt.Errorf("rank %d got %q", c.Rank(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBcastBadRoot(t *testing.T) {
	w := open(t, "inproc", 2, TransportOptions{})
	if _, err := w.Comm(0).Bcast(5, 1, nil); err == nil {
		t.Error("bad root accepted")
	}
	if _, err := w.Comm(0).Gather(-1, 1, nil); err == nil {
		t.Error("bad gather root accepted")
	}
}

func TestGatherAllGather(t *testing.T) {
	for name, w := range worlds(t, 3) {
		t.Run(name, func(t *testing.T) {
			err := w.SPMD(nil, func(c *Comm) error {
				mine := []byte(fmt.Sprintf("rank%d", c.Rank()))
				parts, err := c.Gather(0, 102, mine)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					for r := 0; r < c.Size(); r++ {
						if string(parts[r]) != fmt.Sprintf("rank%d", r) {
							return fmt.Errorf("gather[%d] = %q", r, parts[r])
						}
					}
				} else if parts != nil {
					return fmt.Errorf("non-root got gather data")
				}
				all, err := c.AllGather(103, mine)
				if err != nil {
					return err
				}
				for r := 0; r < c.Size(); r++ {
					if string(all[r]) != fmt.Sprintf("rank%d", r) {
						return fmt.Errorf("allgather[%d] = %q on rank %d", r, all[r], c.Rank())
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllReduce(t *testing.T) {
	w := open(t, "inproc", 4, TransportOptions{})
	err := w.SPMD(nil, func(c *Comm) error {
		vals := []float64{float64(c.Rank()), 1}
		sum, err := c.AllReduceF64(104, vals, func(a, b float64) float64 { return a + b })
		if err != nil {
			return err
		}
		if sum[0] != 6 || sum[1] != 4 {
			return fmt.Errorf("allreduce = %v", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceLengthMismatch(t *testing.T) {
	w := open(t, "inproc", 2, TransportOptions{})
	err := w.SPMD(nil, func(c *Comm) error {
		vals := make([]float64, 1+c.Rank()) // deliberately unequal
		_, err := c.AllReduceF64(105, vals, func(a, b float64) float64 { return a + b })
		if err == nil {
			return errors.New("length mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSPMDJoinsErrors(t *testing.T) {
	w := open(t, "inproc", 3, TransportOptions{})
	sentinel := errors.New("boom")
	err := w.SPMD(nil, func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("SPMD error = %v", err)
	}
}

func TestSingleRankCollectives(t *testing.T) {
	w := open(t, "inproc", 1, TransportOptions{})
	c := w.Comm(0)
	if err := c.Barrier(1); err != nil {
		t.Fatal(err)
	}
	got, err := c.Bcast(0, 2, []byte("solo"))
	if err != nil || string(got) != "solo" {
		t.Fatalf("solo bcast: %q, %v", got, err)
	}
	parts, err := c.Gather(0, 3, []byte("me"))
	if err != nil || len(parts) != 1 || string(parts[0]) != "me" {
		t.Fatalf("solo gather: %v, %v", parts, err)
	}
}

func TestNewWorldErrors(t *testing.T) {
	if _, err := Open("inproc", 0, TransportOptions{}); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := Open("tcp", 0, TransportOptions{}); err == nil {
		t.Error("tcp p=0 accepted")
	}
	if _, err := newComm(3, 2, nil); err == nil {
		t.Error("bad rank accepted")
	}
}

func TestRandomTrafficProperty(t *testing.T) {
	// A storm of random messages: every (src, dst, tag) stream must
	// arrive complete and in order.
	const p = 4
	w := open(t, "inproc", p, TransportOptions{})
	const perPeer = 50
	err := w.SPMD(nil, func(c *Comm) error {
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		// Send perPeer messages to every other rank on tags 0/1.
		type job struct{ dst, tag int }
		var jobs []job
		for dst := 0; dst < p; dst++ {
			if dst == c.Rank() {
				continue
			}
			for i := 0; i < perPeer; i++ {
				jobs = append(jobs, job{dst, i % 2})
			}
		}
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		seq := make(map[job]byte)
		for _, j := range jobs {
			if err := c.Send(j.dst, j.tag, []byte{seq[j]}); err != nil {
				return err
			}
			seq[j]++
		}
		// Receive all streams and verify ordering.
		for src := 0; src < p; src++ {
			if src == c.Rank() {
				continue
			}
			for tag := 0; tag < 2; tag++ {
				for i := 0; i < perPeer/2; i++ {
					got, err := c.Recv(src, tag)
					if err != nil {
						return err
					}
					if got[0] != byte(i) {
						return fmt.Errorf("stream (%d,%d) out of order: got %d want %d", src, tag, got[0], i)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPLargeMessage(t *testing.T) {
	w := open(t, "tcp", 2, TransportOptions{})
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	err := w.SPMD(nil, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, payload)
		}
		got, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if len(got) != len(payload) {
			return fmt.Errorf("got %d bytes", len(got))
		}
		for i := range got {
			if got[i] != payload[i] {
				return fmt.Errorf("corruption at byte %d", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPSelfSend(t *testing.T) {
	w := open(t, "tcp", 2, TransportOptions{})
	if err := w.Comm(0).Send(0, 1, []byte("self")); err != nil {
		t.Fatal(err)
	}
	got, err := w.Comm(0).Recv(0, 1)
	if err != nil || string(got) != "self" {
		t.Fatalf("self send: %q, %v", got, err)
	}
}
