// Multi-job scenarios: the jobsvc harness counterpart to the
// single-session fuzzer in sim.go. A seeded generator composes a
// worker pool, one pool-saturating "hog" job and a burst of smaller
// jobs whose total demand exceeds the pool, and RunMultiJob drives
// them through a jobsvc.Service on the simulated clock — queueing,
// admission control, elastic shrinks through the epoch protocol, and
// regrows all exercised on one shared runtime.
//
// The scenario is fully seed-derived; the schedule is not (job
// goroutines race on the wall clock even though every duration inside
// them is virtual), so unlike Run the harness does not pin
// byte-identical replays. What it checks instead are the invariants
// that must hold under every interleaving:
//
//   - Every job completes Done — no job is starved, lost or wedged by
//     the multiplexing.
//   - Every job's gathered result is bit-identical to the same spec
//     run alone in a dedicated fixed world of the granted size: the
//     shared mailboxes, concurrent sub-worlds and mid-run resizes
//     never perturb the numerics.
//   - Element conservation per job: N items per iteration summed over
//     ranks, across every scheduler-initiated resize.
//   - The burst actually contended: jobs queued, the scheduler shrank
//     the hog via the membership protocol, and the commits handed the
//     freed ranks to the queue.
//   - The pool drains: no busy ranks, no queue, consistent counters
//     once every job has finished.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"stance/internal/comm"
	"stance/internal/jobsvc"
	"stance/internal/session"
	"stance/internal/vtime"
)

// MultiJobScenario is one generated service workload, fully determined
// by its seed.
type MultiJobScenario struct {
	Seed int64
	Desc string
	// Pool is the worker pool size (always smaller than the summed
	// rank demand of the jobs).
	Pool int
	// Hog is the first submission: it wants the whole pool and runs
	// long enough (in virtual time and in scheduling work) that the
	// burst arrives while it holds everything.
	Hog jobsvc.Spec
	// Burst are the contending submissions, in submission order.
	Burst []jobsvc.Spec

	// Feature flags, for the diversity guard in tests.
	Kinds     map[string]int
	HasMulti  bool // some burst job wants >1 rank
	HasMin2   bool // some burst job insists on >=2 ranks
	HasWork   bool // some burst job amplifies kernel work
	HasOrders bool // burst jobs use more than one ordering
}

// MultiJobResult carries a completed service run.
type MultiJobResult struct {
	Scenario *MultiJobScenario
	// Statuses are the final job statuses, submission order (hog
	// first).
	Statuses []*jobsvc.Status
	// Metrics is the service snapshot after the pool drained.
	Metrics jobsvc.Metrics
}

// GenerateMultiJob derives a service workload from a seed. Same seed,
// same workload — pool size, every spec, every graph parameter.
func GenerateMultiJob(seed int64) (*MultiJobScenario, error) {
	rng := rand.New(rand.NewSource(seed))
	sc := &MultiJobScenario{Seed: seed, Kinds: map[string]int{}}

	sc.Pool = 3 + rng.Intn(2) // 3 or 4

	// The hog saturates the pool and keeps it saturated: thousands of
	// iterations with a short check period, so scheduler-initiated
	// shrinks commit quickly once the burst queues behind it.
	sc.Hog = jobsvc.Spec{
		Name:         "hog",
		Graph:        jobsvc.GraphSpec{Kind: "honeycomb", Rows: 6 + rng.Intn(3), Cols: 8 + rng.Intn(4)},
		Iters:        2000 + rng.Intn(1500),
		Ranks:        sc.Pool,
		MinRanks:     1,
		Order:        "rcb",
		CheckEvery:   5,
		ComputeCost:  time.Duration(100+rng.Intn(300)) * time.Microsecond,
		ReturnResult: true,
	}
	sc.Kinds["honeycomb"]++

	orders := map[string]bool{}
	nBurst := 7 + rng.Intn(5) // 7..11 -> 8..12 jobs total
	for i := 0; i < nBurst; i++ {
		sp := jobsvc.Spec{
			Name:         fmt.Sprintf("b%d", i+1),
			Iters:        30 + rng.Intn(70),
			Ranks:        1 + rng.Intn(sc.Pool),
			MinRanks:     1,
			Order:        orderNames[rng.Intn(len(orderNames))],
			CheckEvery:   5 * (1 + rng.Intn(2)),
			ComputeCost:  time.Duration(1+rng.Intn(50)) * time.Microsecond,
			ReturnResult: true,
		}
		switch rng.Intn(5) {
		case 0:
			sp.Graph = jobsvc.GraphSpec{Kind: "honeycomb", Rows: 4 + rng.Intn(4), Cols: 4 + rng.Intn(5)}
		case 1:
			sp.Graph = jobsvc.GraphSpec{
				Kind: "grid", Rows: 5 + rng.Intn(5), Cols: 5 + rng.Intn(5),
				Perturb: 0.2 * rng.Float64(), Seed: rng.Int63(),
			}
		case 2:
			sp.Graph = jobsvc.GraphSpec{Kind: "annulus", Rows: 3 + rng.Intn(3), Cols: 8 + rng.Intn(6)}
		case 3:
			sp.Graph = jobsvc.GraphSpec{
				Kind: "random", N: 40 + rng.Intn(40),
				Radius: 0.2 + 0.1*rng.Float64(), Seed: rng.Int63(),
			}
		default:
			sp.Graph = jobsvc.GraphSpec{Kind: "paper"}
		}
		if sp.Ranks >= 2 && rng.Intn(4) == 0 {
			sp.MinRanks = 2
			sc.HasMin2 = true
		}
		if rng.Intn(3) == 0 {
			sp.WorkRep = 2
			sc.HasWork = true
		}
		if rng.Intn(3) == 0 {
			sp.Overlap = true
		}
		sc.Kinds[sp.Graph.Kind]++
		orders[sp.Order] = true
		if sp.Ranks > 1 {
			sc.HasMulti = true
		}
		sc.Burst = append(sc.Burst, sp)
	}
	sc.HasOrders = len(orders) > 1

	demand := sc.Hog.Ranks
	for _, sp := range sc.Burst {
		demand += sp.Ranks
	}
	sc.Desc = fmt.Sprintf("seed=%d pool=%d jobs=%d demand=%d hog=%d×%v kinds=%v",
		seed, sc.Pool, 1+len(sc.Burst), demand, sc.Hog.Iters, sc.Hog.ComputeCost, sc.Kinds)
	return sc, nil
}

// RunMultiJob generates the workload for seed, runs it through a
// jobsvc.Service on a simulated clock, and checks every invariant. A
// violation names the seed and scenario, reproducible with
// RunMultiJob(seed) locally.
func RunMultiJob(seed int64) (*MultiJobResult, error) {
	sc, err := GenerateMultiJob(seed)
	if err != nil {
		return nil, err
	}
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("sim: %s: %s", sc.Desc, fmt.Sprintf(format, args...))
	}

	clk := vtime.NewSim()
	svc, err := jobsvc.New(jobsvc.Config{PoolRanks: sc.Pool, Net: comm.TransportOptions{Clock: clk}})
	if err != nil {
		return nil, fail("service: %v", err)
	}
	defer svc.Close()

	// The hog goes in first and grabs the whole idle pool; the burst is
	// submitted only once it is running, so every burst job queues
	// behind a saturated pool and the scheduler must shrink the hog to
	// place them. The submitter counts as a worker of the clock until
	// the burst is in: virtual time cannot pass while it is not blocked,
	// so the hog cannot run its thousands of iterations to the end in
	// the wall-clock gap between two polls, however fast the runtime
	// under it gets.
	clk.Add(1)
	ids, err := func() ([]string, error) {
		defer clk.Done()
		hogSt, err := svc.Submit(sc.Hog)
		if err != nil {
			return nil, fail("submit hog: %v", err)
		}
		if err := waitFor(svc, hogSt.ID, func(st jobsvc.State) bool { return st == jobsvc.Running }, 30*time.Second); err != nil {
			return nil, fail("%v", err)
		}
		ids := []string{hogSt.ID}
		for _, sp := range sc.Burst {
			st, err := svc.Submit(sp)
			if err != nil {
				return nil, fail("submit %s: %v", sp.Name, err)
			}
			ids = append(ids, st.ID)
		}
		return ids, nil
	}()
	if err != nil {
		return nil, err
	}

	res := &MultiJobResult{Scenario: sc}
	for _, id := range ids {
		if err := waitFor(svc, id, jobsvc.State.Finished, 2*time.Minute); err != nil {
			return nil, fail("%v", err)
		}
		st, err := svc.Get(id)
		if err != nil {
			return nil, fail("get %s: %v", id, err)
		}
		res.Statuses = append(res.Statuses, st)
	}
	res.Metrics = svc.Metrics()

	if err := checkMultiJob(sc, res); err != nil {
		return nil, fail("%v", err)
	}
	return res, nil
}

// waitFor polls (on the wall clock — the poller is not a sim worker,
// so it never holds virtual time back) until the job satisfies ok.
func waitFor(svc *jobsvc.Service, id string, ok func(jobsvc.State) bool, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		st, err := svc.Get(id)
		if err != nil {
			return err
		}
		if ok(st.State) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s stuck in state %q after %v (error %q)", id, st.State, within, st.Error)
		}
		time.Sleep(time.Millisecond)
	}
}

// dedicatedReference runs the spec alone in a fixed world of the given
// size — the ground truth a pool-multiplexed job must match bit for
// bit. ComputeCost is dropped: it charges the clock, never the
// numbers, and the reference runs on the real clock.
func dedicatedReference(spec jobsvc.Spec, procs int) ([]float64, error) {
	g, err := spec.Graph.Build()
	if err != nil {
		return nil, err
	}
	s, err := session.New(context.Background(), g, session.Config{
		Procs:      procs,
		OrderName:  spec.Order,
		CheckEvery: spec.CheckEvery,
		WorkRep:    spec.WorkRep,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if _, err := s.Run(spec.Iters); err != nil {
		return nil, err
	}
	return s.ResultByVertex()
}

// checkMultiJob verifies the run-level properties of a drained
// service.
func checkMultiJob(sc *MultiJobScenario, res *MultiJobResult) error {
	specs := append([]jobsvc.Spec{sc.Hog}, sc.Burst...)
	for i, st := range res.Statuses {
		spec := specs[i]
		if st.State != jobsvc.Done {
			return fmt.Errorf("job %s (%s) ended %q: %s", st.ID, st.Name, st.State, st.Error)
		}
		if st.Report == nil {
			return fmt.Errorf("job %s finished without a report", st.ID)
		}
		if st.Report.Iters != spec.Iters {
			return fmt.Errorf("job %s report has %d iters, want %d", st.ID, st.Report.Iters, spec.Iters)
		}
		if len(st.Granted) < spec.MinRanks || len(st.Granted) > spec.Ranks {
			return fmt.Errorf("job %s granted %v, want between min %d and want %d",
				st.ID, st.Granted, spec.MinRanks, spec.Ranks)
		}
		if len(st.Report.Ranks) != len(st.Granted) {
			return fmt.Errorf("job %s report covers %d ranks, granted %d", st.ID, len(st.Report.Ranks), len(st.Granted))
		}

		// Element conservation across every scheduler-initiated resize.
		g, err := spec.Graph.Build()
		if err != nil {
			return err
		}
		var items int64
		for _, u := range st.Report.Ranks {
			items += u.Items
		}
		if want := int64(g.N) * int64(spec.Iters); items != want {
			return fmt.Errorf("job %s processed %d items, want %d (N=%d × %d iters) — ranks lost work across resizes",
				st.ID, items, want, g.N, spec.Iters)
		}

		// Bit-equality against a dedicated world of the granted size.
		ref, err := dedicatedReference(spec, len(st.Granted))
		if err != nil {
			return fmt.Errorf("job %s dedicated reference: %v", st.ID, err)
		}
		if len(st.Result) != len(ref) {
			return fmt.Errorf("job %s gathered %d values, reference has %d", st.ID, len(st.Result), len(ref))
		}
		for v := range ref {
			if math.Float64bits(st.Result[v]) != math.Float64bits(ref[v]) {
				return fmt.Errorf("job %s vertex %d: pooled %v != dedicated %v (bit inequality)",
					st.ID, v, st.Result[v], ref[v])
			}
		}
	}

	// The hog was elastically reallocated: shrunk for the burst (and
	// possibly regrown once the queue drained).
	if res.Statuses[0].Resizes == 0 {
		return fmt.Errorf("hog was never resized — the burst did not force a reallocation")
	}

	// Service-level accounting: every job done, the pool drained, and
	// the decision log shows the contention actually happened.
	m := res.Metrics
	if m.Done != len(specs) || m.Queued != 0 || m.Running != 0 || m.Failed != 0 || m.Canceled != 0 {
		return fmt.Errorf("counts done/queued/running/failed/canceled = %d/%d/%d/%d/%d, want %d/0/0/0/0",
			m.Done, m.Queued, m.Running, m.Failed, m.Canceled, len(specs))
	}
	if m.BusyRanks != 0 {
		return fmt.Errorf("pool not drained: %d ranks busy", m.BusyRanks)
	}
	if m.JobWall.N != len(specs) || m.JobWall.P50 > m.JobWall.P95 || m.JobWall.P95 > m.JobWall.P99 {
		return fmt.Errorf("job wall summary inconsistent: %+v", m.JobWall)
	}
	kinds := map[string]int{}
	for _, d := range m.Decisions {
		kinds[d.Kind]++
	}
	if kinds["grant"] != len(specs) {
		return fmt.Errorf("%d grants for %d jobs (decisions: %v)", kinds["grant"], len(specs), kinds)
	}
	if kinds["shrink"] == 0 || kinds["commit"] == 0 {
		return fmt.Errorf("no elastic reallocation (decisions: %v) — the burst should have shrunk the hog", kinds)
	}
	return nil
}
