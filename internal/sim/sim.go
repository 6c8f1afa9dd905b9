// Package sim is the deterministic adaptive-scenario harness: a
// seeded generator composes random geometric graphs, random
// delay/latency network models, heterogeneity traces and loads,
// elastic churn (outages and explicit resizes), balancer policies and
// executor modes into full Session runs on a simulated clock
// (internal/vtime), and Run checks runtime invariants on every one.
// Hours of simulated adaptivity cost milliseconds of CI time, and the
// same seed reproduces the same run byte for byte — the
// scenario-diversity fuzzer the adaptive runtime is verified against.
//
// The invariants every scenario must satisfy:
//
//   - The gathered result is bit-equal to a fixed-world synchronous
//     single-rank reference: no remap, rebind, executor depth, delay
//     model or membership change may perturb the numerics.
//   - Element conservation: summed over ranks, exactly N items are
//     computed per iteration, across every remap and epoch transition.
//   - No deadlock: the virtual clock's stall detector converts a hung
//     collective into an immediate error instead of a frozen test.
//   - RunReport accounting is consistent: executor traffic is bounded
//     by world traffic, split-phase counters by operation counts,
//     check iterations lie on boundaries, epochs advance monotonically
//     and migrations carry bytes.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"stance/internal/ckpt"
	"stance/internal/comm"
	"stance/internal/graph"
	"stance/internal/hetero"
	"stance/internal/loadbal"
	"stance/internal/mesh"
	"stance/internal/redist"
	"stance/internal/session"
	"stance/internal/solver"
	"stance/internal/vtime"
)

// Scenario is one generated configuration, fully determined by its
// seed.
type Scenario struct {
	Seed  int64
	Desc  string
	Graph *graph.Graph
	// Iters is the total iteration count, split into Segments (one
	// Session.Run per segment). Resizes[i], when non-nil, is an
	// explicit Resize request issued before segment i.
	Iters    int
	Segments []int
	Resizes  [][]int
	// Cfg is the session configuration (Net.Clock is filled in by Run).
	Cfg session.Config

	// Feature flags, for picking interesting seeds in tests.
	HasDelay    bool
	HasBalancer bool
	Elastic     bool
	// Pipeline and Fields mirror the session config: the executor
	// depth, over Fields independent solution fields.
	Pipeline int
	Fields   int
	// Kernel names a non-default compute body ("" means the built-in
	// Figure8). Checkpoint reports crash-stop fault tolerance enabled;
	// Kills is its injected kill schedule (empty means checkpointing
	// overhead only — gates and buddy mirrors with nobody dying).
	Kernel     string
	Checkpoint bool
	Kills      []ckpt.Kill
	// Hierarchical reports a two-level world: Groups is the per-rank
	// group id slice, and the session prices inter-group traffic on a
	// slower model. FlatCut keeps that pricing but disables the
	// hierarchy-aware cut (the control arm the Table 4/5 twins measure).
	Hierarchical bool
	Groups       []int
	FlatCut      bool
}

// Result carries a completed scenario run.
type Result struct {
	Scenario *Scenario
	// Reports are the per-segment run reports, in order.
	Reports []*session.RunReport
	// Values is the gathered result in original vertex numbering.
	Values []float64
}

var orderNames = []string{"identity", "rcb", "morton", "hilbert"}

// Generate derives a scenario from a seed. Same seed, same scenario —
// including the graph, which is built from a seeded generator.
func Generate(seed int64) (*Scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	sc := &Scenario{Seed: seed}

	procs := 2 + rng.Intn(3) // 2..4
	n := 40 + rng.Intn(120)
	radius := 0.15 + 0.1*rng.Float64()
	g, err := mesh.RandomGeometric(n, radius, rng.Int63())
	if err != nil {
		return nil, fmt.Errorf("sim: seed %d: %w", seed, err)
	}
	sc.Graph = g

	checkEvery := 5 * (1 + rng.Intn(2)) // 5 or 10
	sc.Iters = 3*checkEvery + rng.Intn(61)

	cfg := session.Config{
		Procs:       procs,
		OrderName:   orderNames[rng.Intn(len(orderNames))],
		CheckEvery:  checkEvery,
		WorkRep:     1,
		ComputeCost: time.Duration(1+rng.Intn(20)) * time.Microsecond,
	}
	// Three draws nothing reads: without them every later draw of every
	// seed shifts, and the CI seed list would cover other scenarios.
	rng.Intn(3)
	rng.Intn(3)
	rng.Intn(4)

	// Network: free, latency-only, delay-only, or the full model.
	switch rng.Intn(4) {
	case 0: // free network
	case 1:
		cfg.Net.Model = &comm.Model{Latency: time.Duration(50+rng.Intn(500)) * time.Microsecond}
	case 2:
		cfg.Net.Model = &comm.Model{Delay: time.Duration(200+rng.Intn(4800)) * time.Microsecond}
		sc.HasDelay = true
	default:
		cfg.Net.Model = &comm.Model{
			Latency:   time.Duration(50+rng.Intn(300)) * time.Microsecond,
			Bandwidth: 1e6 * (1 + 9*rng.Float64()),
			Delay:     time.Duration(rng.Intn(3000)) * time.Microsecond,
			Multicast: rng.Intn(2) == 0,
		}
		sc.HasDelay = cfg.Net.Model.Delay > 0
	}

	// Heterogeneity: base speeds, competing loads and capability
	// traces; traces may include zero-capability (outage) segments on
	// non-coordinator ranks, and explicit outage windows add elastic
	// churn.
	env := hetero.Uniform(procs)
	for i := range env.Speeds {
		env.Speeds[i] = 0.5 + 1.5*rng.Float64()
	}
	for i := rng.Intn(3); i > 0; i-- {
		from := rng.Intn(sc.Iters)
		until := 0
		if rng.Intn(2) == 0 {
			until = from + 1 + rng.Intn(sc.Iters-from)
		}
		env.Loads = append(env.Loads, hetero.Load{
			Rank:      rng.Intn(procs),
			Factor:    1 + 2*rng.Float64(),
			FromIter:  from,
			UntilIter: until,
		})
	}
	for i := rng.Intn(3); i > 0; i-- {
		tr := hetero.Trace{Rank: rng.Intn(procs)}
		from := 0
		for s := 1 + rng.Intn(3); s > 0; s-- {
			from += rng.Intn(sc.Iters/2 + 1)
			cap := []float64{0.25, 0.5, 2, 1}[rng.Intn(4)]
			if tr.Rank != 0 && rng.Intn(5) == 0 {
				cap = 0 // an outage segment: elastic churn via trace
			}
			tr.Steps = append(tr.Steps, hetero.TraceStep{FromIter: from, Capability: cap})
			from++
		}
		env.Traces = append(env.Traces, tr)
	}
	if procs > 1 && rng.Intn(3) == 0 {
		from := checkEvery + rng.Intn(sc.Iters)
		until := 0
		if rng.Intn(2) == 0 {
			until = from + checkEvery + rng.Intn(2*checkEvery)
		}
		env.Outages = append(env.Outages, hetero.Outage{
			Rank:      1 + rng.Intn(procs-1),
			FromIter:  from,
			UntilIter: until,
		})
	}
	cfg.Env = env

	// Balancer: present most of the time — forced remaps are the point.
	if rng.Intn(4) != 3 {
		// A draw nothing reads (it once chose a decentralized balancer),
		// kept like the three above so later draws do not shift.
		_ = rng.Intn(3)
		bal := &loadbal.Config{SafetyFactor: 1}
		if rng.Intn(2) == 0 {
			bal.CostModel = redist.CostModel{PerMessage: 1e-4, PerByte: 1e-8}
		}
		switch rng.Intn(3) {
		case 1:
			bal.Estimator, _ = loadbal.NewEstimator(loadbal.EstimateEWMA, 0.5)
		case 2:
			bal.Estimator, _ = loadbal.NewEstimator(loadbal.EstimateMax, 0)
		}
		cfg.Balancer = bal
		sc.HasBalancer = true
	}

	// Executor depth: synchronous, depth 1 on a single field, or a
	// random depth and field count. Multi-field runs at depth >= 1 keep
	// several exchanges in flight at once, exercising the dependency
	// tracker and rotating wire tags under every network model and churn
	// pattern.
	switch rng.Intn(3) {
	case 1:
		cfg.Pipeline = 1
	case 2:
		cfg.Pipeline = 1 + rng.Intn(2)
		cfg.Fields = 1 + rng.Intn(3)
	}
	sc.Pipeline = cfg.Pipeline
	sc.Fields = cfg.Fields
	if sc.Fields == 0 {
		sc.Fields = 1
	}

	// Segmentation and explicit elastic resizes: split the run into
	// 1..3 Session.Run calls; sometimes shrink the active set before a
	// middle segment and grow it back before the next.
	nSeg := 1 + rng.Intn(3)
	sc.Segments = splitIters(rng, sc.Iters, nSeg)
	sc.Resizes = make([][]int, nSeg)
	if procs > 1 && nSeg > 1 && rng.Intn(2) == 0 {
		cfg.Elastic = true
		shrunk := make([]int, 0, procs-1)
		for r := 0; r < procs-1; r++ {
			shrunk = append(shrunk, r)
		}
		full := make([]int, procs)
		for r := range full {
			full[r] = r
		}
		sc.Resizes[1] = shrunk
		if nSeg > 2 {
			sc.Resizes[2] = full
		}
	}
	// Kernel: mostly the paper's Figure 8 neighbor sum, sometimes the
	// sparse CG smoothing kernel — subset-capable, so every executor
	// mode above still applies. The reference run uses the same kernel,
	// keeping the bit-equality invariant meaningful.
	if rng.Intn(3) == 0 {
		sc.Kernel = "cg"
		cfg.Kernel = solver.CG{}
	}

	// Crash-stop fault tolerance: about a third of the multi-rank
	// seeds enable buddy checkpointing, and most of those inject a
	// kill. The schedule is always recoverable by construction (a
	// single non-coordinator rank), so every seed must complete with
	// the reference result — unrecoverable schedules are the chaos
	// harness's job (GenerateChaos). DetectTimeout is huge in virtual
	// time: gates are at most CheckEvery iterations apart, so honest
	// skew stays far below it and only an injected kill can time out.
	if procs > 1 && rng.Intn(3) == 0 {
		sc.Checkpoint = true
		ckCfg := &ckpt.Config{DetectTimeout: 5 * time.Second}
		if rng.Intn(3) > 0 {
			ckCfg.Kills = []ckpt.Kill{{
				Rank: 1 + rng.Intn(procs-1),
				Iter: 1 + rng.Intn(sc.Iters-1),
			}}
			sc.Kills = ckCfg.Kills
			// A dead rank leaves the membership for good: drop the
			// churn that would race recovery to readmit or retire it
			// (the kill-vs-churn interleavings belong to the session
			// tests; here every kill seed must stay recoverable).
			env.Outages = nil
			cfg.Elastic = false
			for i := range sc.Resizes {
				sc.Resizes[i] = nil
			}
			for ti := range env.Traces {
				for si, st := range env.Traces[ti].Steps {
					if st.Capability == 0 {
						env.Traces[ti].Steps[si].Capability = 0.25
					}
				}
			}
		}
		cfg.Checkpoint = ckCfg
	}

	// Two-level worlds (the paper's nonuniform network): about a third
	// of the multi-rank seeds group the ranks over a slower inter-group
	// link. The hierarchy composes with everything above — elastic
	// churn falls back to flat cuts on partial active sets, and the
	// bit-equality invariant must hold regardless. These draws come
	// last so older seeds keep their pre-hierarchy scenarios.
	if procs > 1 && rng.Intn(3) == 0 {
		topo, err := comm.ContiguousGroups(procs, 2)
		if err != nil {
			return nil, fmt.Errorf("sim: seed %d: %w", seed, err)
		}
		cfg.Net.Topology = topo
		cfg.Net.InterModel = &comm.Model{
			Latency:   time.Duration(500+rng.Intn(2000)) * time.Microsecond,
			Bandwidth: 1e5 * (1 + 9*rng.Float64()),
			Multicast: rng.Intn(2) == 0,
		}
		cfg.FlatCut = rng.Intn(4) == 0
		_ = rng.Intn(4) // unread: it once chose flat balance reports
		sc.Hierarchical = true
		sc.Groups = topo.GroupOfSlice()
		sc.FlatCut = cfg.FlatCut
	}

	sc.Elastic = cfg.Elastic || env.Elastic()
	sc.Cfg = cfg

	sc.Desc = fmt.Sprintf(
		"seed=%d n=%d procs=%d iters=%v order=%s check=%d cost=%v model=%+v pipeline=%d fields=%d kernel=%q balancer=%v elastic=%v ckpt=%v kills=%v loads=%d traces=%d outages=%d resizes=%v groups=%v flatcut=%v",
		seed, g.N, procs, sc.Segments, cfg.OrderName, checkEvery, cfg.ComputeCost,
		cfg.Net.Model, cfg.Pipeline, sc.Fields, sc.Kernel, sc.HasBalancer, sc.Elastic,
		sc.Checkpoint, sc.Kills,
		len(env.Loads), len(env.Traces), len(env.Outages), sc.Resizes, sc.Groups, sc.FlatCut)
	return sc, nil
}

// splitIters partitions total into n positive segments, each a
// multiple of nothing in particular — segment boundaries landing on
// and off check boundaries are both interesting.
func splitIters(rng *rand.Rand, total, n int) []int {
	segs := make([]int, n)
	remaining := total
	for i := 0; i < n-1; i++ {
		max := remaining - (n - 1 - i)
		seg := 1 + rng.Intn(max)
		segs[i] = seg
		remaining -= seg
	}
	segs[n-1] = remaining
	return segs
}

// ErrDeadlock marks a virtual-time deadlock: every rank blocked with
// no event scheduled. execute wraps the session error with it, so
// harnesses that tolerate loud failures (the chaos tests) can still
// distinguish a clean abort from a hang.
var ErrDeadlock = errors.New("virtual-time deadlock")

// Run generates the scenario for seed, executes it on a simulated
// clock, and checks every invariant. It returns an error naming the
// seed and scenario on any violation, so a CI failure is immediately
// reproducible with Run(seed) locally.
func Run(seed int64) (*Result, error) {
	sc, err := Generate(seed)
	if err != nil {
		return nil, err
	}
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("sim: %s: %s", sc.Desc, fmt.Sprintf(format, args...))
	}

	// The fixed-world synchronous reference: a single rank, no model,
	// no balancer, real clock. Orderings depend only on the graph, and
	// every runtime mechanism is numerics-preserving, so the adaptive
	// run must reproduce this bit for bit.
	ref, err := reference(sc)
	if err != nil {
		return nil, fail("reference run: %v", err)
	}

	res, err := execute(sc)
	if err != nil {
		return nil, fail("%v", err)
	}
	if err := checkInvariants(sc, res, ref); err != nil {
		return nil, fail("%v", err)
	}
	return res, nil
}

// execute runs a scenario on a fresh simulated clock with the stall
// watchdog armed and gathers the result. Errors are the session's own,
// except a hang, which is converted into an ErrDeadlock-wrapped error.
func execute(sc *Scenario) (*Result, error) {
	clk := vtime.NewSim()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stalled := make(chan struct{})
	var stallOnce sync.Once
	clk.SetStallHandler(func() {
		// A virtual-time deadlock: every rank blocked with no event
		// scheduled. Cancel the session so every receive unwinds with
		// an error instead of hanging the harness. The handler can fire
		// once per quiescent episode and the post-cancel unwind can
		// quiesce again, hence the Once.
		stallOnce.Do(func() {
			close(stalled)
			cancel()
		})
	})

	cfg := sc.Cfg
	cfg.Net.Clock = clk
	s, err := session.New(ctx, sc.Graph, cfg)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	defer s.Close()

	res := &Result{Scenario: sc}
	deadlocked := func(err error) error {
		select {
		case <-stalled:
			return fmt.Errorf("%w: %v", ErrDeadlock, err)
		default:
			return err
		}
	}
	for i, iters := range sc.Segments {
		if req := sc.Resizes[i]; req != nil {
			if err := s.Resize(req); err != nil {
				return nil, fmt.Errorf("resize %v: %w", req, err)
			}
		}
		rep, err := s.Run(iters)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, deadlocked(err))
		}
		res.Reports = append(res.Reports, rep)
	}
	res.Values, err = s.ResultByVertex()
	if err != nil {
		return nil, fmt.Errorf("gather: %w", deadlocked(err))
	}
	return res, nil
}

// reference runs the scenario's graph and iteration count on one rank,
// synchronously, on the real clock, and gathers by vertex.
func reference(sc *Scenario) ([]float64, error) {
	s, err := session.New(context.Background(), sc.Graph, session.Config{
		Procs:     1,
		OrderName: sc.Cfg.OrderName,
		Kernel:    sc.Cfg.Kernel,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if _, err := s.Run(sc.Iters); err != nil {
		return nil, err
	}
	return s.ResultByVertex()
}

// checkInvariants verifies the harness's run-level properties.
func checkInvariants(sc *Scenario, res *Result, ref []float64) error {
	// Bit-equality against the fixed-world synchronous reference.
	if len(res.Values) != len(ref) {
		return fmt.Errorf("gathered %d values, reference has %d", len(res.Values), len(ref))
	}
	for i := range ref {
		if math.Float64bits(res.Values[i]) != math.Float64bits(ref[i]) {
			return fmt.Errorf("vertex %d: %v differs from reference %v (bit inequality)", i, res.Values[i], ref[i])
		}
	}

	// Element conservation: exactly N items per iteration, summed over
	// ranks, across every remap, rebind and epoch transition. A
	// recovery rolls the survivors back RollbackDepth iterations, and
	// those re-executed iterations are honestly recomputed work — the
	// dying rank's last partial segment was accounted before its gate —
	// so the target grows by N × Fields × depth per recovery.
	var items, iters, rollback int64
	prevEpoch := 0
	for si, rep := range res.Reports {
		iters += int64(rep.Iters)
		for _, u := range rep.Ranks {
			if u.Items < 0 || u.Compute < 0 || u.Comm < 0 {
				return fmt.Errorf("segment %d: negative usage %+v", si, u)
			}
			items += u.Items
		}
		// Accounting consistency within the report.
		if rep.Exec.Msgs > rep.Msgs {
			return fmt.Errorf("segment %d: executor msgs %d exceed world msgs %d", si, rep.Exec.Msgs, rep.Msgs)
		}
		if rep.Exec.Bytes > rep.Bytes {
			return fmt.Errorf("segment %d: executor bytes %d exceed world bytes %d", si, rep.Exec.Bytes, rep.Bytes)
		}
		// Inter-group traffic is a subset of world traffic, and flat
		// worlds must not attribute anything to a link they don't have.
		if rep.InterMsgs < 0 || rep.InterBytes < 0 {
			return fmt.Errorf("segment %d: negative inter-group counters %d msgs / %d bytes", si, rep.InterMsgs, rep.InterBytes)
		}
		if rep.InterMsgs > rep.Msgs || rep.InterBytes > rep.Bytes {
			return fmt.Errorf("segment %d: inter-group traffic %d/%d exceeds world traffic %d/%d",
				si, rep.InterMsgs, rep.InterBytes, rep.Msgs, rep.Bytes)
		}
		if !sc.Hierarchical && (rep.InterMsgs != 0 || rep.InterBytes != 0) {
			return fmt.Errorf("segment %d: flat world attributed %d msgs / %d bytes to an inter-group link",
				si, rep.InterMsgs, rep.InterBytes)
		}
		if rep.Exec.Overlapped > rep.Exec.Ops {
			return fmt.Errorf("segment %d: %d overlapped ops of %d total", si, rep.Exec.Overlapped, rep.Exec.Ops)
		}
		if rep.Exec.Pipelined > rep.Exec.Overlapped {
			return fmt.Errorf("segment %d: %d pipelined ops exceed %d overlapped (pipelined is a subset)",
				si, rep.Exec.Pipelined, rep.Exec.Overlapped)
		}
		if rep.Exec.Ops < 0 || rep.Exec.Msgs < 0 || rep.Exec.Bytes < 0 || rep.Exec.Idle < 0 || rep.Exec.Pipelined < 0 {
			return fmt.Errorf("segment %d: negative executor counters %+v", si, rep.Exec)
		}
		if sc.Pipeline == 0 && rep.Exec.Overlapped != 0 {
			return fmt.Errorf("segment %d: synchronous run recorded %d overlapped ops", si, rep.Exec.Overlapped)
		}
		if sc.Pipeline == 0 && rep.Exec.Idle != 0 {
			return fmt.Errorf("segment %d: synchronous run recorded %v idle time", si, rep.Exec.Idle)
		}
		if (sc.Pipeline == 0 || sc.Fields == 1) && rep.Exec.Pipelined != 0 {
			return fmt.Errorf("segment %d: run with at most one exchange in flight recorded %d pipelined ops", si, rep.Exec.Pipelined)
		}
		if rep.Iters > 0 && rep.Wall <= 0 {
			return fmt.Errorf("segment %d: non-positive virtual wall %v for %d iters", si, rep.Wall, rep.Iters)
		}
		for _, ev := range rep.Checks {
			if ev.Iter%sc.Cfg.CheckEvery != 0 {
				return fmt.Errorf("segment %d: check at iteration %d, not a multiple of %d", si, ev.Iter, sc.Cfg.CheckEvery)
			}
			if ev.Decision.Remapped && ev.Decision.RemapTime < 0 {
				return fmt.Errorf("segment %d: negative remap time at iter %d", si, ev.Iter)
			}
		}
		for _, rec := range rep.Recoveries {
			if len(sc.Kills) == 0 {
				return fmt.Errorf("segment %d: recovery %+v with no kill scheduled", si, rec)
			}
			if rec.RollbackDepth < 0 || rec.RestoredIter < 0 || rec.Iter != rec.RestoredIter+rec.RollbackDepth {
				return fmt.Errorf("segment %d: inconsistent rollback accounting %+v", si, rec)
			}
			if rec.DetectLatency < 0 || rec.Duration < 0 || rec.RestoredBytes < 0 {
				return fmt.Errorf("segment %d: negative recovery accounting %+v", si, rec)
			}
			if len(rec.Dead) == 0 || len(rec.Active) == 0 {
				return fmt.Errorf("segment %d: recovery with empty dead or survivor set %+v", si, rec)
			}
			for _, d := range rec.Dead {
				if d == 0 {
					return fmt.Errorf("segment %d: coordinator in the dead set of a successful run %+v", si, rec)
				}
			}
			rollback += int64(rec.RollbackDepth)
		}
		for _, ev := range rep.Members {
			if ev.Epoch <= prevEpoch {
				return fmt.Errorf("segment %d: epoch went %d -> %d", si, prevEpoch, ev.Epoch)
			}
			prevEpoch = ev.Epoch
			if ev.MovedBytes < 0 || ev.Msgs < 0 {
				return fmt.Errorf("segment %d: negative migration accounting %+v", si, ev)
			}
			if ev.MovedBytes > 0 && ev.Msgs == 0 {
				return fmt.Errorf("segment %d: %d migration bytes in zero messages", si, ev.MovedBytes)
			}
			if len(ev.Active) == 0 {
				return fmt.Errorf("segment %d: empty active set committed", si)
			}
		}
	}
	if iters != int64(sc.Iters) {
		return fmt.Errorf("segments ran %d iterations, scenario has %d", iters, sc.Iters)
	}
	if want := int64(sc.Graph.N) * (iters + rollback) * int64(sc.Fields); items != want {
		return fmt.Errorf("element conservation violated: %d items computed, want %d (N=%d × (%d iters + %d rolled back) × %d fields)",
			items, want, sc.Graph.N, iters, rollback, sc.Fields)
	}
	return nil
}
