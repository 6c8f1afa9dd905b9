package bench

import (
	"context"
	"math"
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
// take. The objects bound is per-iteration averaged across the whole
// run — gates, takes and all — so either regression trips it. An
// object count cannot see a take that allocated a fresh snapshot
// buffer at every boundary, one object each time, so the bytes
// allocated per check boundary, across all three ranks, must also stay
// below one rank's encoded snapshot: the own snapshot and the mirror
// both live in reused buffers (about 860 bytes against the smallest
// rank's 1.6 kB, measured).
func TestCheckpointSteadyAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector; CI runs this in a no-race step")
	}
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	const checkEvery = 10
	s, err := session.New(context.Background(), g, session.Config{
		Procs:       3,
		Net:         comm.TransportOptions{Clock: vtime.NewSim()},
		OrderName:   "rcb",
		CheckEvery:  checkEvery,
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
	perBoundary := (m1.TotalAlloc - m0.TotalAlloc) / (iters / checkEvery)
	snap := uint64(math.MaxUint64)
	for r := 0; r < 3; r++ {
		snap = min(snap, uint64(ckpt.EncodedLen(1, int64(s.Runtime(r).LocalN()))))
	}
	t.Logf("checkpointed steady state: %d allocs/iteration, %d bytes/boundary across 3 ranks (smallest snapshot %d bytes)",
		perIter, perBoundary, snap)
	if perIter > 150 {
		t.Errorf("checkpointed steady state allocates %d objects/iteration; takes must reuse the store's persistent buffers", perIter)
	}
	if perBoundary >= snap {
		t.Errorf("checkpointed steady state allocates %d bytes per check boundary, at least one %d-byte snapshot; takes must reuse the store's snapshot and mirror buffers",
			perBoundary, snap)
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
