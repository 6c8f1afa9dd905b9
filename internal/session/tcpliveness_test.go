package session

import (
	"context"
	"testing"
	"time"

	"stance/internal/ckpt"
	"stance/internal/comm"
	"stance/internal/mesh"
	"stance/internal/order"
)

// TestTcpHeartbeatKillRecover is the wire-level liveness acceptance
// scenario: a 3-rank TCP session with transport heartbeats, a peer
// killed for real between runs (comm.KillEndpoint — sockets stay open,
// no injected ckpt.Kill, no clean end of stream), and a deliberately
// enormous protocol DetectTimeout. The next run's checkpoint gate must
// learn of the death from the transport — the dead peer's receive
// fails with ErrPeerDead, which unwraps to the ErrTimeout the gate's
// detector already understands — long before the protocol deadline,
// roll back to the surviving checkpoint, re-cut onto the survivors and
// finish with the gathered result bit-identical to a run that never
// failed.
func TestTcpHeartbeatKillRecover(t *testing.T) {
	g, err := mesh.Honeycomb(15, 20)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Procs:      3,
		Order:      order.RCB,
		WorkRep:    2,
		CheckEvery: 5,
	}

	// The failure-free reference. Bit-exactness must hold across
	// transports: the plan replay fixes the reduction order, so the
	// arithmetic is transport-independent.
	fixed, err := New(context.Background(), g, base)
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	if _, err := fixed.Run(10); err != nil {
		t.Fatal(err)
	}
	if _, err := fixed.Run(10); err != nil {
		t.Fatal(err)
	}
	want, err := fixed.ResultByVertex()
	if err != nil {
		t.Fatal(err)
	}

	// The protocol timeout is absurdly large on purpose: if detection
	// relied on it, this test would take minutes. Passing quickly is
	// the proof that the transport's heartbeat liveness — not the
	// protocol deadline — delivered the failure signal.
	const detectTimeout = 5 * time.Minute
	cfg := base
	cfg.Transport = "tcp"
	cfg.Net.HeartbeatInterval = 15 * time.Millisecond
	cfg.Net.HeartbeatMiss = 3
	cfg.Checkpoint = &ckpt.Config{DetectTimeout: detectTimeout}
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rep1, err := s.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.Recoveries) != 0 {
		t.Fatalf("failure-free run recorded %d recoveries", len(rep1.Recoveries))
	}
	if rep1.Transport == nil {
		t.Fatal("tcp run report carries no transport stats")
	}
	if rep1.Transport.NTx == 0 || rep1.Transport.NFlushes == 0 {
		t.Errorf("transport stats %+v, want live n_tx/n_flushes counters", *rep1.Transport)
	}

	// Crash rank 2 for real: its endpoint goes silent, its sockets
	// stay open. Survivors can only learn of this by missed
	// heartbeats.
	if err := comm.KillEndpoint(s.world.Comm(2)); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	rep2, err := s.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	detectWall := time.Since(start)
	if len(rep2.Recoveries) != 1 {
		t.Fatalf("post-kill run recorded %d recoveries, want 1: %+v", len(rep2.Recoveries), rep2.Recoveries)
	}
	rec := rep2.Recoveries[0]
	if len(rec.Dead) != 1 || rec.Dead[0] != 2 {
		t.Errorf("dead set %v, want [2]", rec.Dead)
	}
	if rec.Iter != 10 || rec.RestoredIter != 5 {
		t.Errorf("recovery at iter %d restored iter %d, want 10/5 (the deferred boundary's gate)", rec.Iter, rec.RestoredIter)
	}
	if len(rec.Active) != 2 || rec.Active[0] != 0 || rec.Active[1] != 1 {
		t.Errorf("survivor set %v, want [0 1]", rec.Active)
	}
	// The whole run — detection included — must finish in a fraction
	// of the 5-minute protocol deadline, and the recovery record's own
	// latency measurement must agree.
	if detectWall > 30*time.Second {
		t.Errorf("post-kill run took %v: detection waited on the protocol deadline, not the transport", detectWall)
	}
	if rec.DetectLatency >= detectTimeout {
		t.Errorf("detect latency %v reached the protocol deadline %v", rec.DetectLatency, detectTimeout)
	}
	if rep2.Transport.NDroppedHB < int64(cfg.Net.HeartbeatMiss) {
		t.Errorf("n_dropped_hb = %d, want >= %d misses behind the declaration",
			rep2.Transport.NDroppedHB, cfg.Net.HeartbeatMiss)
	}

	got, err := s.ResultByVertex()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered result has %d values, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex %d: recovered %v != reference %v (results must match bit for bit)", i, got[i], want[i])
		}
	}
}
