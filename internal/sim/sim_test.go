package sim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"stance/internal/comm"
	"stance/internal/mesh"
	"stance/internal/session"
	"stance/internal/vtime"
)

// simSeeds is the fixed seed list CI runs as a required job: 32
// scenarios spanning delay/latency models, heterogeneity traces,
// elastic churn, balancer policies and both executor modes. A failure
// prints the full scenario description, reproducible locally with
// sim.Run(seed).
const simSeeds = 32

func TestSimSeeds(t *testing.T) {
	t.Cleanup(func() { flushTimeline(t) })
	for seed := int64(0); seed < simSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Values) != res.Scenario.Graph.N {
				t.Fatalf("gathered %d values for %d vertices", len(res.Values), res.Scenario.Graph.N)
			}
			checkTimeline(t, "sim", seed, res)
		})
	}
}

// TestSimScenarioDiversity guards the generator itself: across the CI
// seed list, the interesting features must all actually occur —
// otherwise the fuzzer silently stops covering what it was built to
// cover.
func TestSimScenarioDiversity(t *testing.T) {
	var delay, balancer, elastic, depth1Single, traces, multiSeg, resize int
	var depth2, multiField, syncMode int
	var cg, ckptOverhead, kills int
	var hier, hierBalanced int
	for seed := int64(0); seed < simSeeds; seed++ {
		sc, err := Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Hierarchical {
			hier++
			if sc.HasBalancer {
				hierBalanced++
			}
		}
		if sc.Kernel == "cg" {
			cg++
		}
		if sc.Checkpoint && len(sc.Kills) == 0 {
			ckptOverhead++
		}
		if len(sc.Kills) > 0 {
			kills++
		}
		if sc.HasDelay {
			delay++
		}
		if sc.HasBalancer {
			balancer++
		}
		if sc.Elastic {
			elastic++
		}
		if sc.Pipeline == 1 && sc.Fields == 1 {
			// The paper loop with its one exchange hidden behind the
			// interior sweep.
			depth1Single++
		}
		if sc.Pipeline >= 2 {
			depth2++
		}
		if sc.Pipeline > 0 && sc.Fields > 1 {
			// Several exchanges genuinely in flight at once.
			multiField++
		}
		if sc.Pipeline == 0 {
			syncMode++
		}
		if len(sc.Cfg.Env.Traces) > 0 {
			traces++
		}
		if len(sc.Segments) > 1 {
			multiSeg++
		}
		for _, r := range sc.Resizes {
			if r != nil {
				resize++
				break
			}
		}
	}
	for name, n := range map[string]int{
		"delay models": delay, "balancers": balancer, "elastic churn": elastic,
		"single-field depth-1 executors": depth1Single, "capability traces": traces,
		"multi-segment runs": multiSeg, "explicit resizes": resize,
		"depth-2 executors":           depth2,
		"multi-field depth>=1 runs":   multiField,
		"plain synchronous executors": syncMode,
		"cg kernels":                  cg,
		"kill-free checkpointing":     ckptOverhead,
		"injected kills":              kills,
		"multi-group worlds":          hier,
		"balanced multi-group worlds": hierBalanced,
	} {
		if n == 0 {
			t.Errorf("no scenario in the %d-seed CI list exercises %s", simSeeds, name)
		}
	}
}

// replaySeed picks the first seed whose scenario composes the full
// stack — injected delay, balancer-driven remaps and elastic churn —
// so the determinism pin below covers everything at once.
func replaySeed(t *testing.T) int64 {
	for seed := int64(0); seed < 256; seed++ {
		sc, err := Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		if sc.HasDelay && sc.HasBalancer && sc.Elastic {
			t.Logf("replay scenario: %s", sc.Desc)
			return seed
		}
	}
	t.Fatal("no seed under 256 composes delay + balancer + elastic churn")
	return 0
}

// TestSimSeedReplay is the determinism pin: the same seeded scenario —
// random graph, delay model, capability trace, elastic churn — run
// twice produces byte-identical gathered vectors and identical
// RunReport counters, timings included, because every duration is
// virtual.
func TestSimSeedReplay(t *testing.T) {
	seed := replaySeed(t)
	a, err := Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Values) != len(b.Values) {
		t.Fatalf("gathered %d vs %d values", len(a.Values), len(b.Values))
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			t.Fatalf("vertex %d differs between replays: %v vs %v", i, a.Values[i], b.Values[i])
		}
	}
	if len(a.Reports) != len(b.Reports) {
		t.Fatalf("%d vs %d reports", len(a.Reports), len(b.Reports))
	}
	for i := range a.Reports {
		if !reflect.DeepEqual(a.Reports[i], b.Reports[i]) {
			t.Errorf("segment %d reports differ between replays:\n%+v\nvs\n%+v", i, a.Reports[i], b.Reports[i])
		}
	}
}

// TestSimDeadlockWatchdog: a genuinely hung collective — one rank
// receiving a message nobody will ever send — trips the virtual
// clock's stall detector immediately instead of hanging the suite for
// a wall-clock timeout.
func TestSimDeadlockWatchdog(t *testing.T) {
	clk := vtime.NewSim()
	w, err := comm.Open("inproc", 2, comm.TransportOptions{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clk.SetStallHandler(cancel)
	done := make(chan error, 1)
	go func() {
		done <- w.SPMD(ctx, func(c *comm.Comm) error {
			if c.Rank() == 0 {
				_, err := c.Recv(1, 99) // rank 1 never sends
				return err
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("deadlocked section returned no error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stall detector did not fire; the deadlocked section hung")
	}
}

// TestVirtualSteadyStateAllocTripwire bounds per-iteration allocations
// of a virtual-time steady state on a free network: the executor data
// path is allocation-free (pinned exactly by TestExecutorZeroAlloc in
// internal/bench), the sim clock recycles its sleep timers, and what
// remains — context-cancel watchers on blocking receives, bookkeeping
// — must stay small and bounded. A regression that allocates per
// message or recompiles a plan per iteration trips this immediately.
// Not parallel: it reads global allocation counters.
func TestVirtualSteadyStateAllocTripwire(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	clk := vtime.NewSim()
	s, err := session.New(context.Background(), g, session.Config{
		Procs:       3,
		Net:         comm.TransportOptions{Clock: clk},
		OrderName:   "rcb",
		ComputeCost: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(50); err != nil { // warm pools, plans, buffers
		t.Fatal(err)
	}
	const iters = 300
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := s.Run(iters); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	perIter := (m1.Mallocs - m0.Mallocs) / iters
	t.Logf("steady state: %d allocs/iteration across 3 ranks", perIter)
	if perIter > 300 {
		t.Errorf("virtual steady state allocates %d objects/iteration; the replay path should stay near-allocation-free", perIter)
	}
}
