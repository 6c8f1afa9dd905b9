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
	"stance/internal/core"
	"stance/internal/hetero"
	"stance/internal/loadbal"
	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/solver"
	"stance/internal/vtime"
)

// handWired runs iters iterations of the Figure 8 loop the way callers
// used to before the session API existed — Open → World.SPMD → core.New
// → solver.New (→ loadbal.New) with a manual check loop — and returns
// the gathered result.
func handWired(t *testing.T, p, iters, checkEvery int, env *hetero.Env, balance bool) []float64 {
	t.Helper()
	world, err := comm.Open("inproc", p, comm.TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := core.New(c, g, core.Config{Order: order.RCB})
		if err != nil {
			return err
		}
		s, err := solver.New(rt, env, 2)
		if err != nil {
			return err
		}
		var bal *loadbal.Balancer
		if balance {
			bal, err = loadbal.New(rt, loadbal.Config{Horizon: checkEvery})
			if err != nil {
				return err
			}
		}
		err = s.Run(iters, func(iter int) error {
			if bal == nil || iter%checkEvery != 0 || iter == iters {
				return nil
			}
			tm := s.TakeTimings()
			_, err := bal.Check(loadbal.Report{RatePerItem: tm.RatePerItem(), Items: tm.Items})
			return err
		})
		if err != nil {
			return err
		}
		y, err := s.GatherResult(0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = y
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunMatchesHandWiredLoop is the acceptance test for the Session
// driver: Run must reproduce, bit for bit, the final vector of the
// hand-wired world/runtime/solver loop it replaced — with and without
// load balancing (remaps move data without changing values), and with
// the membership protocol switched on but idle (no outage, no Resize:
// the verdict at every boundary says "continue" and changes nothing).
func TestRunMatchesHandWiredLoop(t *testing.T) {
	const p, iters, checkEvery = 3, 12, 5
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	env := hetero.PaperAdaptive(p, 2)

	for _, tc := range []struct {
		name             string
		balance, elastic bool
	}{
		{"static", false, false},
		{"balanced", true, false},
		{"elastic", true, true},
	} {
		balance := tc.balance
		var balCfg *loadbal.Config
		if balance {
			balCfg = &loadbal.Config{}
		}
		t.Run(tc.name, func(t *testing.T) {
			want := handWired(t, p, iters, checkEvery, env, balance)

			s, err := New(context.Background(), g, Config{
				Procs:      p,
				Order:      order.RCB,
				Env:        env,
				WorkRep:    2,
				Balancer:   balCfg,
				Elastic:    tc.elastic,
				CheckEvery: checkEvery,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rep, err := s.Run(iters)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Result()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("Result() has %d values, hand-wired loop %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("value %d: session %v != hand-wired %v", i, got[i], want[i])
				}
			}
			if rep.Iters != iters || len(rep.Ranks) != p {
				t.Errorf("report: %d iters, %d ranks", rep.Iters, len(rep.Ranks))
			}
			var items int64
			for _, u := range rep.Ranks {
				items += u.Items
			}
			if want := int64(g.N) * int64(iters); items != want {
				t.Errorf("report items = %d, want %d", items, want)
			}
			if rep.Msgs <= 0 || rep.Bytes <= 0 {
				t.Errorf("report msgs/bytes = %d/%d, want > 0", rep.Msgs, rep.Bytes)
			}
			if balance {
				if len(rep.Checks) == 0 {
					t.Error("balanced run recorded no checks")
				}
				for _, ev := range rep.Checks {
					if ev.Iter%checkEvery != 0 {
						t.Errorf("check at iteration %d, want multiples of %d", ev.Iter, checkEvery)
					}
				}
			}
		})
	}
}

// TestRunResumes: consecutive Run calls continue the same computation,
// matching one long hand-wired run.
func TestRunResumes(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	want := handWired(t, 2, 10, 100, nil, false)

	s, err := New(context.Background(), g, Config{Procs: 2, Order: order.RCB, WorkRep: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, n := range []int{4, 6} {
		if _, err := s.Run(n); err != nil {
			t.Fatal(err)
		}
	}
	if s.Iter() != 10 {
		t.Errorf("Iter() = %d, want 10", s.Iter())
	}
	got, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("value %d: split runs %v != single run %v", i, got[i], want[i])
		}
	}
}

// TestRunDeferredCheck: a session driven by repeated short Runs whose
// length equals the check interval must still balance — the check
// that falls on each Run's final iteration is deferred to the start
// of the next Run, not dropped.
func TestRunDeferredCheck(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), g, Config{
		Procs: 3,
		Order: order.RCB,
		Env:   hetero.PaperAdaptive(3, 3),
		// On the simulated clock the rates, the inspector time and the
		// remap cost the balancer weighs are virtual charges, so the
		// remap decision is the same on every run. On the real clock a
		// loaded host inflates the measured inspector time past the
		// window's gain and the check, correctly, keeps the layout.
		WorkRep:     100,
		Balancer:    &loadbal.Config{},
		CheckEvery:  5,
		Net:         comm.TransportOptions{Clock: vtime.NewSim()},
		ComputeCost: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var checks []CheckEvent
	for i := 0; i < 3; i++ {
		rep, err := s.Run(5)
		if err != nil {
			t.Fatal(err)
		}
		checks = append(checks, rep.Checks...)
	}
	// Runs 2 and 3 must each open with the check deferred from the
	// previous Run's final iteration (at global iters 5 and 10).
	if len(checks) != 2 {
		t.Fatalf("3x Run(5) performed %d checks, want 2 deferred ones: %+v", len(checks), checks)
	}
	for i, want := range []int{5, 10} {
		if checks[i].Iter != want {
			t.Errorf("check %d at iter %d, want %d", i, checks[i].Iter, want)
		}
	}
	if !checks[0].Decision.Remapped {
		t.Error("3x imbalance not remapped by the deferred check")
	}
}

// TestSessionCancellation: cancelling the session context mid-run must
// terminate Run with context.Canceled instead of deadlocking.
func TestSessionCancellation(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s, err := New(ctx, g, Config{Procs: 2, WorkRep: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(1_000_000)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run error = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled Run did not terminate")
	}
	// Ranks may have stopped at different iterations: the session must
	// refuse further collectives instead of deadlocking them.
	if _, err := s.Run(1); err == nil {
		t.Error("Run succeeded on a session whose previous Run failed")
	}
	if _, err := s.Result(); err == nil {
		t.Error("Result succeeded on a session whose previous Run failed")
	}
}

// TestSessionClose: double Close is safe and a closed session refuses
// to run; the escape hatches degrade to nil instead of panicking.
func TestSessionClose(t *testing.T) {
	g, err := mesh.Honeycomb(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), g, Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if _, err := s.Run(1); err == nil {
		t.Error("Run on a closed session succeeded")
	}
	if s.Runtime(0) != nil || s.Solver(0) != nil || s.Iter() != 0 {
		t.Error("closed session still hands out per-rank state")
	}
	if _, err := s.Result(); err == nil {
		t.Error("Result on a closed session succeeded")
	}
}

// TestSessionClonesEstimator: the configured estimator is a prototype;
// each rank's balancer must get its own copy or decentralized checks
// race on the shared history (caught by -race) and can diverge.
func TestSessionClonesEstimator(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	est, err := loadbal.NewEstimator(loadbal.EstimateEWMA, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), g, Config{
		Procs:      3,
		Order:      order.RCB,
		Env:        hetero.PaperAdaptive(3, 2),
		WorkRep:    2,
		Balancer:   &loadbal.Config{Estimator: est, Decentralized: true},
		CheckEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(est.Predict()) != 0 {
		t.Error("session mutated the prototype estimator")
	}
}

// TestSessionConfigValidation: bad configurations fail fast.
func TestSessionConfigValidation(t *testing.T) {
	g, err := mesh.Honeycomb(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]Config{
		"zero procs":                  {},
		"bad transport":               {Procs: 2, Transport: "bogus"},
		"bad order":                   {Procs: 2, OrderName: "bogus"},
		"env mismatch":                {Procs: 2, Env: hetero.Uniform(3)},
		"weight mismatch":             {Procs: 2, Weights: []float64{1, 2, 3}},
		"negative work rep":           {Procs: 2, WorkRep: -5},
		"negative check interval":     {Procs: 2, CheckEvery: -3},
		"negative group count":        {Procs: 2, Groups: -1},
		"negative detect timeout":     {Procs: 2, Checkpoint: &ckpt.Config{DetectTimeout: -time.Second}},
		"kill beyond the world":       {Procs: 2, Checkpoint: &ckpt.Config{Kills: []ckpt.Kill{{Rank: 5, Iter: 1}}}},
		"negative model latency":      {Procs: 2, Net: comm.TransportOptions{Model: &comm.Model{Latency: -time.Millisecond}}},
		"NaN safety factor":           {Procs: 2, Balancer: &loadbal.Config{SafetyFactor: math.NaN()}},
		"tcp on a simulated clock":    {Procs: 2, Transport: "tcp", Net: comm.TransportOptions{Clock: vtime.NewSim()}},
		"hybrid on a simulated clock": {Procs: 2, Transport: "hybrid", Groups: 2, Net: comm.TransportOptions{Clock: vtime.NewSim()}},
		"hybrid without a topology":   {Procs: 2, Transport: "hybrid"},
	}
	for name, cfg := range cases {
		verr := cfg.Validate()
		if verr == nil {
			t.Errorf("%s: Validate accepted", name)
		}
		s, err := New(context.Background(), g, cfg)
		if err == nil {
			s.Close()
			t.Errorf("%s: New succeeded", name)
		} else if verr != nil && err.Error() != verr.Error() {
			t.Errorf("%s: New said %q, Validate %q", name, err, verr)
		}
	}
	if _, err := New(context.Background(), nil, Config{Procs: 1}); err == nil {
		t.Error("nil graph: New succeeded")
	}
}

// TestSessionEfficiencyReport: the report's Section 4 efficiency is a
// sane fraction on a uniform world.
func TestSessionEfficiencyReport(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), g, Config{Procs: 2, Order: order.RCB, WorkRep: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	eff, err := rep.Efficiency(g.N)
	if err != nil {
		t.Fatal(err)
	}
	if eff <= 0 || eff > 1.5 {
		t.Errorf("Efficiency = %v, want a sane fraction", eff)
	}
}

// TestRunReportsExecutorTraffic: the report's Exec stats come from the
// executor's own per-operation counters — one Exchange per rank per
// iteration, the same messages every iteration on a static layout, and
// always a subset of the world-level totals. Repeated Runs report
// deltas, not cumulative counts.
func TestRunReportsExecutorTraffic(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	const p, iters = 3, 4
	s, err := New(context.Background(), g, Config{Procs: p, Order: order.RCB})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exec.Ops != p*iters {
		t.Errorf("Exec.Ops = %d, want %d", rep.Exec.Ops, p*iters)
	}
	if rep.Exec.Msgs <= 0 || rep.Exec.Msgs%iters != 0 {
		t.Errorf("Exec.Msgs = %d, want a positive multiple of %d", rep.Exec.Msgs, iters)
	}
	if rep.Exec.Bytes <= 0 || rep.Exec.Bytes%8 != 0 {
		t.Errorf("Exec.Bytes = %d, want a positive multiple of 8", rep.Exec.Bytes)
	}
	if rep.Exec.Msgs > rep.Msgs || rep.Exec.Bytes > rep.Bytes {
		t.Errorf("executor traffic (%d msgs/%d bytes) exceeds world totals (%d/%d)",
			rep.Exec.Msgs, rep.Exec.Bytes, rep.Msgs, rep.Bytes)
	}
	// A second Run reports its own window.
	rep2, err := s.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Exec != rep.Exec {
		t.Errorf("static layout: second Run's Exec %+v != first %+v", rep2.Exec, rep.Exec)
	}
}

// TestDriverTraffic pins the messages the driver itself sends — world
// total minus executor replay — which no other test covers, per Run
// and so per boundary: every Run after the first performs iters/10
// boundaries (the interior ones, plus the one deferred from the
// previous Run's last iteration). A fixed session without a balancer
// sends nothing of its own: the Run is one SPMD section, which the
// join orders. Otherwise a boundary is one control round — a report
// from each of the p−1 members when checkpoints or a centralized
// balancer are on, one verdict multicast when anything is on — plus
// the decentralized all-gather (p−1 reports in, one multicast out) and
// the checkpoint's buddy ring (p messages). On a uniform world under
// the simulated clock no check remaps, so nothing else moves. It also
// pins a fixed session's view of membership: everyone, epoch 0, and no
// Resize.
func TestDriverTraffic(t *testing.T) {
	const p, checkEvery = 4, 10
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	everyone := func(t *testing.T, s *Session) {
		t.Helper()
		epoch, active := s.Membership()
		if epoch != 0 || len(active) != p {
			t.Fatalf("Membership() = epoch %d, active %v; want epoch 0 and all %d ranks", epoch, active, p)
		}
		for i, r := range active {
			if r != i {
				t.Fatalf("Membership() active = %v, want 0..%d", active, p-1)
			}
		}
	}
	ck := &ckpt.Config{DetectTimeout: time.Second}
	central, decentral := &loadbal.Config{}, &loadbal.Config{Decentralized: true}
	for _, tc := range []struct {
		name        string
		cfg         Config
		perBoundary int64
	}{
		{"fixed", Config{}, 0},
		{"elastic", Config{Elastic: true}, 1},
		{"checkpoint", Config{Checkpoint: ck}, p - 1 + 1 + p},
		{"centralized", Config{Balancer: central}, p - 1 + 1},
		{"decentralized", Config{Balancer: decentral}, p - 1 + 1},
		{"all three", Config{Elastic: true, Checkpoint: ck, Balancer: central}, p - 1 + 1 + p},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Procs, cfg.Order, cfg.CheckEvery = p, order.RCB, checkEvery
			cfg.Net.Clock, cfg.ComputeCost = vtime.NewSim(), time.Microsecond
			s, err := New(context.Background(), g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			everyone(t, s)
			if _, err := s.Run(50); err != nil { // ends on a boundary, so the next Run opens with one
				t.Fatal(err)
			}
			for _, iters := range []int{100, 1000} {
				rep, err := s.Run(iters)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Remaps()) != 0 {
					t.Fatalf("Run(%d) remapped %d times on a uniform world", iters, len(rep.Remaps()))
				}
				want := tc.perBoundary * int64(iters/checkEvery)
				if got := rep.Msgs - rep.Exec.Msgs; got != want {
					t.Errorf("Run(%d): driver sent %d messages (%d total, %d executor), want %d",
						iters, got, rep.Msgs, rep.Exec.Msgs, want)
				}
			}
			everyone(t, s)
			if tc.name == "fixed" {
				if err := s.Resize([]int{0, 1}); err == nil || !strings.Contains(err.Error(), "fixed-membership session") {
					t.Errorf("Resize on a fixed session: %v, want the fixed-membership error", err)
				}
			}
		})
	}
}
