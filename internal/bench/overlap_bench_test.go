package bench

// Overlap benchmarks: executor depth 1 against depth 0 under an
// injected network-delay model (comm.Model.Delay): every message stays
// invisible to its receiver for a fixed one-way delay, without blocking
// the sender. A rank that exchanges synchronously idles out the full
// delay every iteration; depth 1 computes the interior strip through
// that window. This is the ≥1-benchmark-where-overlap-wins acceptance
// criterion — compare depth=0 with depth=1 in bench.json.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"stance/internal/comm"
	"stance/internal/mesh"
	"stance/internal/session"
	"stance/internal/vtime"
)

// delayedSession builds a 4-rank session over a delay-dominated
// modeled network with enough amplified compute to hide the exchange.
func delayedSession(depth int, delay time.Duration) (*session.Session, error) {
	g, err := mesh.Honeycomb(60, 100)
	if err != nil {
		return nil, err
	}
	return session.New(context.Background(), g, session.Config{
		Procs:     4,
		Net:       comm.TransportOptions{Model: &comm.Model{Delay: delay}},
		OrderName: "rcb",
		WorkRep:   200,
		Pipeline:  depth,
	})
}

// benchDelay is the injected one-way delivery delay. It is chosen to
// dominate one iteration's aggregate compute, so the synchronous
// executor idles a full delay per iteration even on a single-CPU
// machine (where rank compute serializes anyway), while depth 1 fills
// that window with interior sweeps.
const benchDelay = 5 * time.Millisecond

// BenchmarkOverlapLatencyHiding measures whole solver iterations under
// the injected delivery delay. Depth 1 should be measurably faster
// than depth 0: the interior sweep runs while the exchange messages
// are in flight.
func BenchmarkOverlapLatencyHiding(b *testing.B) {
	for depth := 0; depth <= 1; depth++ {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s, err := delayedSession(depth, benchDelay)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			// Warm the plan's wire buffers and the receive pools.
			if _, err := s.Run(2); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			rep, err := s.Run(b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if depth > 0 {
				b.ReportMetric(float64(rep.Exec.Idle.Nanoseconds())/float64(b.N), "idle-ns/op")
			}
		})
	}
}

// TestOverlapLatencyHidingVirtual is BenchmarkOverlapLatencyHiding's
// virtual-time twin, replacing the wall-clock ">5% win" test that had
// to be -short-gated on shared CI runners: the same 4-rank session
// runs on a simulated clock with a 5ms injected one-way delay and
// virtualized compute, so both executors measure exact, deterministic
// virtual durations and the whole test takes milliseconds of real
// time. The interior sweep (~6ms of virtual compute per iteration)
// more than covers the delay, so depth 1 must beat depth 0 by well
// over 5% and hide nearly all of the exchange.
func TestOverlapLatencyHidingVirtual(t *testing.T) {
	const iters = 30
	run := func(depth int) *session.RunReport {
		g, err := mesh.Honeycomb(60, 100)
		if err != nil {
			t.Fatal(err)
		}
		s, err := session.New(context.Background(), g, session.Config{
			Procs:       4,
			Net:         comm.TransportOptions{Model: &comm.Model{Delay: benchDelay}, Clock: vtime.NewSim()},
			OrderName:   "rcb",
			ComputeCost: 4 * time.Microsecond,
			Pipeline:    depth,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Run(2); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(iters)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	wall := time.Now()
	sync := run(0)
	ov := run(1)
	t.Logf("virtual: depth 0 %v, depth 1 %v (idle %v over %d split ops) in %v real",
		sync.Wall, ov.Wall, ov.Exec.Idle, ov.Exec.Overlapped, time.Since(wall))
	if ov.Exec.Overlapped == 0 {
		t.Fatal("depth-1 run recorded no split-phase ops")
	}
	if sync.Exec.Overlapped != 0 {
		t.Fatal("synchronous run recorded split-phase ops")
	}
	if ov.Wall > sync.Wall-sync.Wall/20 {
		t.Errorf("depth 1 took %v virtual, depth 0 %v; depth 1 should win by >5%% under a %v one-way delay",
			ov.Wall, sync.Wall, benchDelay)
	}
	// The interior sweep outlasts the delay, so the drain hides nearly
	// all of it — a little genuine idle remains because per-rank
	// compute imbalance lets iteration starts drift apart, so a fast
	// rank can finish its interior before a slow peer's message was
	// even sent. Depth 0 is exposed to the delay on every exchange;
	// depth 1 must hide at least 90% of that exposure. Exact virtual quantities, so the bound cannot flake.
	exposure := time.Duration(iters) * benchDelay
	if ov.Exec.Idle > exposure/10 {
		t.Errorf("depth 1 idled %v of a %v delay exposure; the interior sweep should hide at least 90%%", ov.Exec.Idle, exposure)
	}
}

// BenchmarkSolverStep records the no-delay baseline of depths 0 and 1,
// so the split-phase bookkeeping overhead itself stays visible in
// bench.json.
func BenchmarkSolverStep(b *testing.B) {
	for depth := 0; depth <= 1; depth++ {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			g, err := mesh.Honeycomb(40, 60)
			if err != nil {
				b.Fatal(err)
			}
			s, err := session.New(context.Background(), g, session.Config{
				Procs:     4,
				OrderName: "rcb",
				WorkRep:   8,
				Pipeline:  depth,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Run(2); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := s.Run(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}
