package vtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// elapsed is the virtual time since the epoch.
func elapsed(s *Sim) time.Duration { return s.Now().Sub(simEpoch) }

// TestChargeOverlaps: two workers' charges overlapping in virtual time
// run their computations at the same real time. Worker B sleeps 1ms
// while A charges 5ms; A's f waits for B's f to start. Under a
// sequential f-then-Sleep, A would run its f unblocked, B's sleep could
// never fire and the rendezvous would time out.
func TestChargeOverlaps(t *testing.T) {
	s := NewSim()
	s.Add(2)
	var arrived atomic.Int32
	both := make(chan struct{})
	rendezvous := func() {
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(10 * time.Second):
			t.Error("charged computations did not overlap")
		}
	}
	var wg sync.WaitGroup
	var nowA, nowB time.Duration
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer s.Done()
		Charge(s, 5*time.Millisecond, rendezvous)
		nowA = elapsed(s)
	}()
	go func() {
		defer wg.Done()
		defer s.Done()
		s.Sleep(time.Millisecond)
		Charge(s, 5*time.Millisecond, rendezvous)
		nowB = elapsed(s)
	}()
	wg.Wait()
	if nowA != 5*time.Millisecond || nowB != 6*time.Millisecond {
		t.Errorf("charges returned at %v and %v, want 5ms and 6ms", nowA, nowB)
	}
}

// TestChargeHoldsLaterEvents: a worker sleeping past a charge's due
// time wakes only after the charged computation returns, and reads its
// own due time; the charging worker reads its call instant plus d.
// The computation outlasts stallGrace, so this also shows a long f is
// not mistaken for a deadlock.
func TestChargeHoldsLaterEvents(t *testing.T) {
	s := NewSim()
	var stalls atomic.Int32
	s.SetStallHandler(func() { stalls.Add(1) })
	s.Add(2)
	started := make(chan struct{})
	release := make(chan struct{})
	var fReturned, sleeperWoke atomic.Bool
	var wokeAfterF bool
	var nowCharge, nowSleep time.Duration
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer s.Done()
		Charge(s, 2*time.Millisecond, func() {
			close(started)
			<-release
			fReturned.Store(true)
		})
		nowCharge = elapsed(s)
	}()
	go func() {
		defer wg.Done()
		defer s.Done()
		s.Sleep(3 * time.Millisecond)
		wokeAfterF = fReturned.Load()
		sleeperWoke.Store(true)
		nowSleep = elapsed(s)
	}()
	<-started
	time.Sleep(3 * stallGrace)
	if sleeperWoke.Load() {
		t.Error("a sleeper due after the charge woke while the charged computation ran")
	}
	close(release)
	wg.Wait()
	if !wokeAfterF {
		t.Error("the sleeper woke before the charged computation returned")
	}
	if nowCharge != 2*time.Millisecond || nowSleep != 3*time.Millisecond {
		t.Errorf("charge returned at %v, sleeper woke at %v; want 2ms and 3ms", nowCharge, nowSleep)
	}
	if n := stalls.Load(); n != 0 {
		t.Errorf("stall handler fired %d times", n)
	}
}

// TestChargeLongComputeIsNotAStall: with every other worker parked on
// an external condition (no event scheduled but the charge's own
// wake-up), an f longer than stallGrace does not trip the stall
// handler.
func TestChargeLongComputeIsNotAStall(t *testing.T) {
	s := NewSim()
	var stalls atomic.Int32
	s.SetStallHandler(func() { stalls.Add(1) })
	s.Add(2)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // parked on a Go channel the clock cannot see
		defer wg.Done()
		defer s.Done()
		<-release
	}()
	s.Block() // on the parked worker's behalf, before anyone can advance
	var now time.Duration
	go func() {
		defer wg.Done()
		defer s.Done()
		Charge(s, time.Millisecond, func() { time.Sleep(5 * stallGrace) })
		now = elapsed(s)
		s.Unblock(1)
		close(release)
	}()
	wg.Wait()
	if n := stalls.Load(); n != 0 {
		t.Errorf("stall handler fired %d times during a long charged computation", n)
	}
	if now != time.Millisecond {
		t.Errorf("charge returned at %v, want 1ms", now)
	}
}

// TestChargePanicLeavesNoWakeup: a panicking f drops its wake-up and
// its blocked mark, so the clock keeps serving the worker.
func TestChargePanicLeavesNoWakeup(t *testing.T) {
	s := NewSim()
	s.Add(1)
	done := make(chan struct{})
	var now time.Duration
	go func() {
		defer close(done)
		defer s.Done()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("the panic did not propagate out of Charge")
				}
			}()
			Charge(s, time.Hour, func() { panic("boom") })
		}()
		s.mu.Lock()
		for _, tm := range s.timers {
			if !tm.stopped {
				t.Error("a wake-up outlived its panicking computation")
			}
		}
		if s.blocked != 0 {
			t.Errorf("%d blocked marks after the panic, want 0", s.blocked)
		}
		s.mu.Unlock()
		s.Sleep(time.Millisecond)
		now = elapsed(s)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker hung after a panicking charge")
	}
	if now != time.Millisecond {
		t.Errorf("virtual time %v after the panic and a 1ms sleep, want 1ms (the dropped wake-up must not fire)", now)
	}
}

// TestChargeReal: on the wall clock Charge runs f, then sleeps d.
func TestChargeReal(t *testing.T) {
	var ran time.Time
	Charge(Real{}, 20*time.Millisecond, func() { ran = time.Now() })
	if ran.IsZero() {
		t.Fatal("f did not run")
	}
	if d := time.Since(ran); d < 20*time.Millisecond {
		t.Errorf("Charge returned %v after f, want at least the 20ms charge", d)
	}
}
