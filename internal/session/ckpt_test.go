package session

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"stance/internal/ckpt"
	"stance/internal/comm"
	"stance/internal/loadbal"
	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/vtime"
)

// TestKillRecoverBitExact is the acceptance scenario: a 4-rank run on
// the sim clock with rank 2 killed at iteration 30. The survivors must
// detect the failure at the iteration-30 gate, roll back to the
// iteration-20 checkpoint, re-cut onto 3 ranks and finish — with the
// gathered final vector bit-identical to a run that never failed, and
// the recovery overhead exact on the virtual clock: detection costs
// exactly one DetectTimeout (uniform ranks on equal intervals reach
// the gate at the same instant, so the only wait is the dead rank's
// deadline) and the restore itself is free on the free network.
func TestKillRecoverBitExact(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30) // 600 vertices: equal 4-rank intervals
	if err != nil {
		t.Fatal(err)
	}
	const (
		iters         = 60
		detectTimeout = 50 * time.Millisecond
	)
	base := Config{
		Procs:       4,
		Order:       order.RCB,
		WorkRep:     3,
		CheckEvery:  10,
		ComputeCost: 20 * time.Microsecond,
	}

	ref := base
	ref.Net.Clock = vtime.NewSim()
	fixed, err := New(context.Background(), g, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	if _, err := fixed.Run(iters); err != nil {
		t.Fatal(err)
	}
	want, err := fixed.ResultByVertex()
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Net.Clock = vtime.NewSim()
	cfg.Checkpoint = &ckpt.Config{
		DetectTimeout: detectTimeout,
		Kills:         []ckpt.Kill{{Rank: 2, Iter: 30}},
	}
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Run(iters)
	if err != nil {
		t.Fatal(err)
	}

	if len(rep.Recoveries) != 1 {
		t.Fatalf("run recorded %d recoveries, want 1: %+v", len(rep.Recoveries), rep.Recoveries)
	}
	rec := rep.Recoveries[0]
	if rec.Iter != 30 || rec.RestoredIter != 20 || rec.RollbackDepth != 10 {
		t.Errorf("recovery at iter %d restored iter %d (depth %d), want 30/20/10",
			rec.Iter, rec.RestoredIter, rec.RollbackDepth)
	}
	if len(rec.Dead) != 1 || rec.Dead[0] != 2 {
		t.Errorf("dead set %v, want [2]", rec.Dead)
	}
	wantActive := []int{0, 1, 3}
	if len(rec.Active) != 3 || rec.Active[0] != 0 || rec.Active[1] != 1 || rec.Active[2] != 3 {
		t.Errorf("survivor set %v, want %v", rec.Active, wantActive)
	}
	if rec.Epoch != 1 {
		t.Errorf("recovery epoch %d, want 1", rec.Epoch)
	}
	// Exact virtual-time accounting: all ranks reach the gate at the
	// same instant (uniform compute cost on equal intervals, free
	// network), so detection waits exactly the dead rank's deadline,
	// and the recovery epoch itself (rebind + restore + re-checkpoint)
	// moves no virtual time at all.
	if rec.DetectLatency != detectTimeout {
		t.Errorf("detect latency %v, want exactly %v", rec.DetectLatency, detectTimeout)
	}
	if rec.Duration != 0 {
		t.Errorf("recovery duration %v, want exactly 0 on the free network", rec.Duration)
	}
	if wantBytes := int64(g.N) * 8; rec.RestoredBytes != wantBytes {
		t.Errorf("restored %d bytes, want %d", rec.RestoredBytes, wantBytes)
	}
	if epoch, active := s.Membership(); epoch != 1 || len(active) != 3 {
		t.Errorf("final membership epoch %d with %d active, want 1 with 3", epoch, len(active))
	}
	checkPlanSplit(t, s, "after recovery")

	got, err := s.ResultByVertex()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered result has %d values, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex %d: recovered %v != reference %v (results must match bit for bit)",
				i, got[i], want[i])
		}
	}
}

// TestKillAtRunBoundaryRecoversNextRun: a kill whose iteration falls
// on a Run's final boundary fires at the next Run's start gate (the
// final boundary is deferred, like checks). The recovery must land in
// the second report and the result must still match the reference.
func TestKillAtRunBoundaryRecoversNextRun(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Procs:      4,
		Order:      order.RCB,
		WorkRep:    3,
		CheckEvery: 10,
	}
	ref := base
	fixed, err := New(context.Background(), g, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	if _, err := fixed.Run(30); err != nil {
		t.Fatal(err)
	}
	if _, err := fixed.Run(30); err != nil {
		t.Fatal(err)
	}
	want, err := fixed.ResultByVertex()
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Net.Clock = vtime.NewSim()
	cfg.ComputeCost = 10 * time.Microsecond
	cfg.Checkpoint = &ckpt.Config{Kills: []ckpt.Kill{{Rank: 1, Iter: 30}}}
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep1, err := s.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.Recoveries) != 0 {
		t.Fatalf("first Run recorded %d recoveries, want 0 (boundary deferred)", len(rep1.Recoveries))
	}
	rep2, err := s.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Recoveries) != 1 {
		t.Fatalf("second Run recorded %d recoveries, want 1: %+v", len(rep2.Recoveries), rep2.Recoveries)
	}
	rec := rep2.Recoveries[0]
	if rec.Iter != 30 || rec.RestoredIter != 20 || len(rec.Dead) != 1 || rec.Dead[0] != 1 {
		t.Errorf("recovery %+v, want rank 1 dead at iter 30 restored to 20", rec)
	}
	got, err := s.ResultByVertex()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex %d: recovered %v != reference %v", i, got[i], want[i])
		}
	}
}

// TestRunWallIsTheSection: a Run's Wall is its SPMD section's own
// duration, to the nanosecond on the sim clock — the clock's advance
// across the Run call, nothing before the section or after its join.
// So a kill detected at a Run-start checkpoint gate, whose detection
// waits out the coordinator's heartbeat deadline, lies inside that
// Run's Wall.
func TestRunWallIsTheSection(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	const detect = time.Second
	clk := vtime.NewSim()
	s, err := New(context.Background(), g, Config{
		Procs: 4, Order: order.RCB, WorkRep: 3, CheckEvery: 10,
		Net:         comm.TransportOptions{Clock: clk},
		ComputeCost: 10 * time.Microsecond,
		Checkpoint:  &ckpt.Config{DetectTimeout: detect, Kills: []ckpt.Kill{{Rank: 1, Iter: 30}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for run := 1; run <= 2; run++ {
		before := clk.Now()
		rep, err := s.Run(30)
		if err != nil {
			t.Fatal(err)
		}
		if advance := clk.Now().Sub(before); rep.Wall != advance {
			t.Errorf("Run %d: Wall %v, the clock advanced %v", run, rep.Wall, advance)
		}
		if run == 1 {
			if len(rep.Recoveries) != 0 || rep.Wall >= detect {
				t.Fatalf("Run 1: %d recoveries, Wall %v; want none, well under the %v deadline", len(rep.Recoveries), rep.Wall, detect)
			}
			continue
		}
		// The kill at iteration 30 fires at Run 2's start gate.
		if len(rep.Recoveries) != 1 || rep.Recoveries[0].Iter != 30 {
			t.Fatalf("Run 2 recoveries %+v, want one at the iteration-30 gate", rep.Recoveries)
		}
		if latency := rep.Recoveries[0].DetectLatency; latency < detect || rep.Wall <= latency {
			t.Errorf("Run 2: Wall %v does not hold the gate's detection latency %v (deadline %v)", rep.Wall, latency, detect)
		}
	}
}

// TestKillBeforeFirstCheckpointReinits: a rank killed at iteration 0
// dies at the very first gate, before any checkpoint exists. The
// survivors restart from the initial conditions (a pure function of
// the global index, hence layout-independent) and the run must still
// finish bit-exact.
func TestKillBeforeFirstCheckpointReinits(t *testing.T) {
	g, err := mesh.Honeycomb(15, 20)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Procs:      3,
		Order:      order.RCB,
		WorkRep:    3,
		CheckEvery: 10,
	}
	fixed, err := New(context.Background(), g, base)
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	if _, err := fixed.Run(40); err != nil {
		t.Fatal(err)
	}
	want, err := fixed.ResultByVertex()
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Net.Clock = vtime.NewSim()
	cfg.ComputeCost = 10 * time.Microsecond
	cfg.Checkpoint = &ckpt.Config{Kills: []ckpt.Kill{{Rank: 1, Iter: 0}}}
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recoveries) != 1 {
		t.Fatalf("run recorded %d recoveries, want 1", len(rep.Recoveries))
	}
	rec := rep.Recoveries[0]
	if rec.Iter != 0 || rec.RestoredIter != 0 || rec.RollbackDepth != 0 || rec.RestoredBytes != 0 {
		t.Errorf("recovery %+v, want a restart from initial conditions at iter 0", rec)
	}
	got, err := s.ResultByVertex()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex %d: recovered %v != reference %v", i, got[i], want[i])
		}
	}
}

// TestKillCoordinatorFailsLoudly: the coordinator has no backup; when
// it dies the members' verdict deadline expires and the Run must fail
// with a wrapped ErrUnrecoverable — never hang, never succeed
// silently.
func TestKillCoordinatorFailsLoudly(t *testing.T) {
	g, err := mesh.Honeycomb(10, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Procs:       3,
		Order:       order.RCB,
		CheckEvery:  10,
		Net:         comm.TransportOptions{Clock: vtime.NewSim()},
		ComputeCost: 10 * time.Microsecond,
		Checkpoint:  &ckpt.Config{Kills: []ckpt.Kill{{Rank: 0, Iter: 15}}},
	}
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.Run(40)
	if err == nil {
		t.Fatal("Run succeeded with a dead coordinator")
	}
	if !errors.Is(err, ckpt.ErrUnrecoverable) {
		t.Fatalf("Run error %v does not wrap ckpt.ErrUnrecoverable", err)
	}
}

// TestVerdictDeadlineSaturates is FuzzConfig's seed whose coordinator
// dies at iteration 0 under a DetectTimeout of 2^62 ns: the members'
// verdict deadline, (active+2)·DetectTimeout, must saturate at the
// largest Duration instead of wrapping to a shorter one (2^62 ns at
// three ranks), the virtual clock must wait it out, and the error must
// name it.
func TestVerdictDeadlineSaturates(t *testing.T) {
	g, err := mesh.Honeycomb(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	clk := vtime.NewSim()
	cfg := Config{
		Procs: 3, Groups: 3, ComputeCost: 1 << 62, WorkRep: 1 << 62, CheckEvery: 1 << 62, Pipeline: 1 << 40, Fields: 3,
		Net:        comm.TransportOptions{Clock: clk},
		Checkpoint: &ckpt.Config{DetectTimeout: 1 << 62, Kills: []ckpt.Kill{{Rank: 0, Iter: 0}}},
		Balancer:   &loadbal.Config{Horizon: 1 << 62, SafetyFactor: 1e300},
	}
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	t0 := clk.Now()
	_, err = s.Run(2)
	bound := time.Duration(math.MaxInt64).String()
	if !errors.Is(err, ckpt.ErrUnrecoverable) || !strings.Contains(err.Error(), "within "+bound) {
		t.Fatalf("Run: %v; want the unrecoverable dead-coordinator error naming the bound %s", err, bound)
	}
	if waited := clk.Now().Sub(t0); waited <= 1<<62 {
		t.Errorf("the members waited %v of virtual time, not the saturated deadline", waited)
	}
}

// TestKillBuddyPairFailsLoudly: a rank and its checkpoint buddy dying
// inside the same detection window lose the checkpoint; the
// coordinator must abort the run with a wrapped ErrUnrecoverable on
// every survivor.
func TestKillBuddyPairFailsLoudly(t *testing.T) {
	g, err := mesh.Honeycomb(10, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Procs:       4,
		Order:       order.RCB,
		CheckEvery:  10,
		Net:         comm.TransportOptions{Clock: vtime.NewSim()},
		ComputeCost: 10 * time.Microsecond,
		Checkpoint: &ckpt.Config{Kills: []ckpt.Kill{
			{Rank: 1, Iter: 15},
			{Rank: 2, Iter: 15},
		}},
	}
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.Run(40)
	if err == nil {
		t.Fatal("Run succeeded after a rank and its buddy died together")
	}
	if !errors.Is(err, ckpt.ErrUnrecoverable) {
		t.Fatalf("Run error %v does not wrap ckpt.ErrUnrecoverable", err)
	}
}

// TestSequentialKillsRecoverTwice: two ranks dying at different
// boundaries are two independent recoveries — the second one's buddy
// ring is the first one's survivor set — and the result still matches
// the never-failed reference.
func TestSequentialKillsRecoverTwice(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Procs:      4,
		Order:      order.RCB,
		WorkRep:    3,
		CheckEvery: 10,
	}
	fixed, err := New(context.Background(), g, base)
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	if _, err := fixed.Run(60); err != nil {
		t.Fatal(err)
	}
	want, err := fixed.ResultByVertex()
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Net.Clock = vtime.NewSim()
	cfg.ComputeCost = 10 * time.Microsecond
	cfg.Checkpoint = &ckpt.Config{Kills: []ckpt.Kill{
		{Rank: 3, Iter: 20},
		{Rank: 1, Iter: 40},
	}}
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recoveries) != 2 {
		t.Fatalf("run recorded %d recoveries, want 2: %+v", len(rep.Recoveries), rep.Recoveries)
	}
	first, second := rep.Recoveries[0], rep.Recoveries[1]
	if first.Iter != 20 || len(first.Dead) != 1 || first.Dead[0] != 3 || first.Epoch != 1 {
		t.Errorf("first recovery %+v, want rank 3 dead at iter 20, epoch 1", first)
	}
	if second.Iter != 40 || len(second.Dead) != 1 || second.Dead[0] != 1 || second.Epoch != 2 {
		t.Errorf("second recovery %+v, want rank 1 dead at iter 40, epoch 2", second)
	}
	if len(second.Active) != 2 {
		t.Errorf("final survivor set %v, want 2 ranks", second.Active)
	}
	got, err := s.ResultByVertex()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex %d: recovered %v != reference %v", i, got[i], want[i])
		}
	}
}
