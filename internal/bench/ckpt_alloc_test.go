package bench

import (
	"context"
	"runtime"
	"testing"
	"time"

	"stance/internal/ckpt"
	"stance/internal/comm"
	"stance/internal/mesh"
	"stance/internal/session"
	"stance/internal/vtime"
)

// TestCheckpointSteadyAlloc extends the allocation gate to
// checkpoint-enabled runs: with buddy checkpoints taken at every check
// boundary and heartbeat gates guarding each one, steady-state
// iterations between boundaries must stay as allocation-free as the
// plain replay path, and the boundaries themselves must reuse the
// store's persistent encode/mirror buffers rather than allocate per
// take. The bound is per-iteration averaged across the whole run —
// gates, takes and all — so either regression trips it.
func TestCheckpointSteadyAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector; CI runs this in a no-race step")
	}
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	s, err := session.New(context.Background(), g, session.Config{
		Procs:       3,
		Net:         comm.TransportOptions{Clock: vtime.NewSim()},
		OrderName:   "rcb",
		CheckEvery:  10,
		ComputeCost: time.Microsecond,
		Checkpoint:  &ckpt.Config{DetectTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(50); err != nil { // warm pools, plans, snapshot buffers
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
	t.Logf("checkpointed steady state: %d allocs/iteration across 3 ranks", perIter)
	if perIter > 150 {
		t.Errorf("checkpointed steady state allocates %d objects/iteration; takes must reuse the store's persistent buffers", perIter)
	}
}

// TestFixedRunAllocIsPerRun gates the shared driver loop on a
// fixed-membership session: a boundary with no balancer, no verdict and
// no checkpoint has nothing to do, so it must allocate nothing — a
// Run's allocations are per Run (SPMD goroutines, the report, the
// pipeline's first flight), and Run(1000) costs what Run(100) does plus
// noise. Fifty objects is half an allocation per extra boundary.
func TestFixedRunAllocIsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector; CI runs this in a no-race step")
	}
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	s, err := session.New(context.Background(), g, session.Config{Procs: 4, OrderName: "rcb", CheckEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(50); err != nil { // warm pools and plans
		t.Fatal(err)
	}
	mallocs := func(iters int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := s.Run(iters); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	short, long := mallocs(100), mallocs(1000)
	t.Logf("fixed session at p=4: Run(100) %d allocs, Run(1000) %d allocs", short, long)
	if long > short+50 {
		t.Errorf("Run(1000) allocates %d objects against Run(100)'s %d; a check boundary on a fixed session must allocate nothing", long, short)
	}
}
