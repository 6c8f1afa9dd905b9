package jobsvc

import (
	"context"
	"errors"
	"testing"
	"time"

	"stance/internal/ckpt"
	"stance/internal/comm"
	"stance/internal/session"
	"stance/internal/vtime"
)

// dedicatedResult runs the spec alone in a dedicated fixed world of
// the given size and returns the solution in original vertex order —
// the ground truth a pool-multiplexed job must match bit for bit.
// ComputeCost is dropped (it charges the clock, never the numbers) so
// the reference runs at full speed on the real clock.
func dedicatedResult(t *testing.T, spec Spec, procs int) []float64 {
	t.Helper()
	spec = spec.withDefaults()
	g, err := spec.Graph.Build()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := session.New(context.Background(), g, session.Config{
		Procs:      procs,
		OrderName:  spec.Order,
		CheckEvery: spec.CheckEvery,
		WorkRep:    spec.WorkRep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Run(spec.Iters); err != nil {
		t.Fatal(err)
	}
	out, err := sess.ResultByVertex()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// waitState polls until the job reaches a state for which ok returns
// true, failing the test after the deadline.
func waitState(t *testing.T, s *Service, id string, ok func(State) bool, within time.Duration) *Status {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if ok(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q (error %q)", id, st.State, st.Error)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func requireBitExact(t *testing.T, id string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: result has %d values, dedicated run %d", id, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: vertex %d: pooled %v != dedicated %v (results must be bit-identical)",
				id, i, got[i], want[i])
		}
	}
}

// TestSingleJobBitExact: one job on a shared pool computes exactly
// what it would alone in a dedicated world of the same size.
func TestSingleJobBitExact(t *testing.T) {
	s, err := New(Config{PoolRanks: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := Spec{
		Graph:        GraphSpec{Kind: "honeycomb", Rows: 8, Cols: 10},
		Iters:        30,
		Ranks:        3,
		WorkRep:      2,
		ReturnResult: true,
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, State.Finished, 10*time.Second)
	if final.State != Done {
		t.Fatalf("job ended %q: %s", final.State, final.Error)
	}
	if len(final.Granted) != 3 {
		t.Fatalf("granted %v, want 3 ranks", final.Granted)
	}
	if final.Report == nil || final.Report.Iters != 30 {
		t.Fatalf("report %+v, want 30 iters", final.Report)
	}
	requireBitExact(t, st.ID, final.Result, dedicatedResult(t, spec, len(final.Granted)))
}

// TestStancedSmoke is the acceptance scenario: a pool of 4 ranks on a
// simulated clock takes a burst of 8 jobs whose total demand exceeds
// the pool. The first job grabs everything; the following submissions
// force queueing and at least one elastic reallocation (the scheduler
// shrinks the big job through the epoch protocol and hands the freed
// ranks to the queue). Every job must complete with a consistent
// report and results bit-identical to dedicated runs.
func TestStancedSmoke(t *testing.T) {
	s, err := New(Config{PoolRanks: 4, Net: comm.TransportOptions{Clock: vtime.NewSim()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	big := Spec{
		Name:         "big",
		Graph:        GraphSpec{Kind: "honeycomb", Rows: 8, Cols: 10},
		Iters:        2500,
		Ranks:        4,
		CheckEvery:   5,
		ComputeCost:  200 * time.Microsecond,
		ReturnResult: true,
	}
	bigSt, err := s.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	// The pool is saturated the moment the big job launches.
	waitState(t, s, bigSt.ID, func(st State) bool { return st == Running }, 10*time.Second)

	burst := []Spec{
		{Name: "b1", Graph: GraphSpec{Kind: "honeycomb", Rows: 4, Cols: 6}, Iters: 40, Ranks: 2, ReturnResult: true},
		{Name: "b2", Graph: GraphSpec{Kind: "grid", Rows: 8, Cols: 8}, Iters: 60, Ranks: 1, ReturnResult: true},
		{Name: "b3", Graph: GraphSpec{Kind: "annulus", Rows: 4, Cols: 10}, Iters: 50, Ranks: 2, ReturnResult: true},
		{Name: "b4", Graph: GraphSpec{Kind: "random", N: 60, Radius: 0.25, Seed: 7}, Iters: 40, Ranks: 1, ReturnResult: true},
		{Name: "b5", Graph: GraphSpec{Kind: "honeycomb", Rows: 5, Cols: 5}, Iters: 80, Ranks: 2, WorkRep: 2, ReturnResult: true},
		{Name: "b6", Graph: GraphSpec{Kind: "grid", Rows: 6, Cols: 10}, Iters: 50, Ranks: 3, ReturnResult: true},
		{Name: "b7", Graph: GraphSpec{Kind: "paper"}, Iters: 40, Ranks: 2, ReturnResult: true},
	}
	ids := []string{bigSt.ID}
	specs := map[string]Spec{bigSt.ID: big}
	for _, sp := range burst {
		st, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		specs[st.ID] = sp
	}

	for _, id := range ids {
		final := waitState(t, s, id, State.Finished, 60*time.Second)
		if final.State != Done {
			t.Fatalf("job %s (%s) ended %q: %s", id, final.Name, final.State, final.Error)
		}
		spec := specs[id]
		if final.Report == nil {
			t.Fatalf("job %s finished without a report", id)
		}
		if final.Report.Iters != spec.Iters {
			t.Errorf("job %s report has %d iters, want %d", id, final.Report.Iters, spec.Iters)
		}
		if len(final.Report.Ranks) != len(final.Granted) {
			t.Errorf("job %s report covers %d ranks, granted %d", id, len(final.Report.Ranks), len(final.Granted))
		}
		g, err := spec.withDefaults().Graph.Build()
		if err != nil {
			t.Fatal(err)
		}
		var items int64
		for _, u := range final.Report.Ranks {
			items += u.Items
		}
		if want := int64(g.N) * int64(spec.Iters); items != want {
			t.Errorf("job %s processed %d items, want %d — ranks lost work across resizes", id, items, want)
		}
		requireBitExact(t, id, final.Result, dedicatedResult(t, spec, len(final.Granted)))
	}

	m := s.Metrics()
	if m.Done != len(ids) || m.Queued != 0 || m.Running != 0 {
		t.Errorf("metrics counts done/queued/running = %d/%d/%d, want %d/0/0", m.Done, m.Queued, m.Running, len(ids))
	}
	if m.BusyRanks != 0 || m.Utilization != 0 {
		t.Errorf("pool not drained: %d busy, utilization %g", m.BusyRanks, m.Utilization)
	}
	if m.JobWall.N != len(ids) || m.JobWall.P50 > m.JobWall.P95 || m.JobWall.P95 > m.JobWall.P99 {
		t.Errorf("job wall summary inconsistent: %+v", m.JobWall)
	}
	kinds := map[string]int{}
	for _, d := range m.Decisions {
		kinds[d.Kind]++
	}
	if kinds["shrink"] == 0 || kinds["commit"] == 0 {
		t.Errorf("no elastic reallocation happened (decisions: %v) — the burst should have shrunk the big job", kinds)
	}
	if kinds["grant"] != len(ids) {
		t.Errorf("%d grants for %d jobs (decisions: %v)", kinds["grant"], len(ids), kinds)
	}
	// The big job was resized at least once (shrunk for the burst,
	// possibly regrown after it).
	bigFinal, err := s.Get(bigSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	if bigFinal.Resizes == 0 {
		t.Error("big job was never resized")
	}
}

// TestQueueBackpressure: a held service accepts QueueDepth jobs and
// rejects the next with ErrQueueFull.
func TestQueueBackpressure(t *testing.T) {
	s, err := New(Config{PoolRanks: 2, QueueDepth: 2, StartHeld: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := Spec{Graph: GraphSpec{Kind: "honeycomb", Rows: 3, Cols: 3}, Iters: 5}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit returned %v, want ErrQueueFull", err)
	}
	s.Release()
	for _, st := range s.List() {
		final := waitState(t, s, st.ID, State.Finished, 10*time.Second)
		if final.State != Done {
			t.Errorf("job %s ended %q: %s", st.ID, final.State, final.Error)
		}
	}
}

// TestCancel covers both cancellation paths: a queued job leaves the
// queue without ever running; a running job unwinds mid-run.
func TestCancel(t *testing.T) {
	s, err := New(Config{PoolRanks: 1, StartHeld: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	queued, err := s.Submit(Spec{Graph: GraphSpec{Kind: "honeycomb", Rows: 3, Cols: 3}, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	st, err := s.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Canceled || !st.Started.IsZero() {
		t.Fatalf("queued job after cancel: state %q, started %v", st.State, st.Started)
	}
	if err := s.Cancel(queued.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("re-cancel returned %v, want ErrFinished", err)
	}

	running, err := s.Submit(Spec{Graph: GraphSpec{Kind: "honeycomb", Rows: 10, Cols: 12}, Iters: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
	waitState(t, s, running.ID, func(st State) bool { return st == Running }, 10*time.Second)
	if err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, running.ID, State.Finished, 10*time.Second)
	if final.State != Canceled {
		t.Fatalf("running job after cancel ended %q: %s", final.State, final.Error)
	}
	m := s.Metrics()
	if m.BusyRanks != 0 {
		t.Errorf("%d ranks still busy after cancellation", m.BusyRanks)
	}
}

// TestDeadline: on the simulated clock a job whose virtual runtime
// exceeds its timeout fails with the deadline error — compute cost is
// charged to the clock, so the deadline fires deterministically
// mid-run.
func TestDeadline(t *testing.T) {
	s, err := New(Config{PoolRanks: 1, Net: comm.TransportOptions{Clock: vtime.NewSim()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(Spec{
		Graph:       GraphSpec{Kind: "honeycomb", Rows: 4, Cols: 5},
		Iters:       1000,
		ComputeCost: time.Millisecond, // virtual seconds per iteration
		Timeout:     100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, State.Finished, 30*time.Second)
	if final.State != Failed || final.Error == "" {
		t.Fatalf("job ended %q (%s), want deadline failure", final.State, final.Error)
	}
}

// TestSubmitValidation rejects malformed specs up front.
func TestSubmitValidation(t *testing.T) {
	s, err := New(Config{PoolRanks: 2, MaxRanksPerJob: 2, StartHeld: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	good := GraphSpec{Kind: "honeycomb", Rows: 3, Cols: 3}
	negDetect := &ckpt.Config{DetectTimeout: -time.Second}
	farKill := &ckpt.Config{Kills: []ckpt.Kill{{Rank: 2, Iter: 1}}}
	bad := []Spec{
		{Graph: good},                                              // no iters
		{Graph: good, Iters: 10, Ranks: 3},                         // over per-job cap
		{Graph: good, Iters: 10, Ranks: 1, MinRanks: 2},            // min > want
		{Graph: good, Iters: 10, Kernel: "no-such-kernel"},         // unknown kernel
		{Graph: good, Iters: 10, Order: "no-such-order"},           // unknown ordering
		{Graph: GraphSpec{Kind: "nope"}, Iters: 10},                // unknown graph
		{Graph: good, Iters: 10, Timeout: -time.Second},            // negative timeout
		{Graph: good, Iters: 10, ComputeCost: -time.Second},        // negative cost
		{Graph: GraphSpec{Kind: "honeycomb", Rows: -1}, Iters: 10}, // generator error
		{Graph: good, Iters: 10, WorkRep: -1},                      // negative work
		{Graph: good, Iters: 10, CheckEvery: -3},                   // negative check period
		{Graph: good, Iters: 10, Ranks: -1},                        // negative ranks
		{Graph: good, Iters: 10, MinRanks: -1},                     // negative min_ranks
		{Graph: good, Iters: 10, Checkpoint: negDetect},            // negative detect timeout
		{Graph: good, Iters: 10, Ranks: 2, Checkpoint: farKill},    // kill beyond ranks
	}
	for i, sp := range bad {
		if _, err := s.Submit(sp); err == nil {
			t.Errorf("bad spec %d was accepted", i)
		}
	}
	if n := len(s.List()); n != 0 {
		t.Errorf("%d jobs recorded from rejected submissions", n)
	}
}

// TestFinishedJobReleasesSession: while a job runs, its ranks share one
// Phase A transform; once it is finished the record keeps the status,
// report and result but neither the session nor the graph, so a
// long-lived service does not grow by a mesh per job served.
func TestFinishedJobReleasesSession(t *testing.T) {
	s, err := New(Config{PoolRanks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	record := func(id string) *job {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.jobs[id]
	}
	released := func(j *job) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		if j.sess != nil || j.g != nil {
			t.Errorf("%s job still holds session %p and graph %p", j.state, j.sess, j.g)
		}
	}
	spec := Spec{
		Graph:        GraphSpec{Kind: "honeycomb", Rows: 8, Cols: 10},
		Iters:        1 << 20, // runs until canceled
		Ranks:        4,
		ComputeCost:  50 * time.Microsecond,
		ReturnResult: true,
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	long := record(st.ID)
	for shared := false; !shared; time.Sleep(200 * time.Microsecond) {
		s.mu.Lock()
		if long.state.Finished() {
			s.mu.Unlock()
			t.Fatalf("job ended %q before its session was seen", long.state)
		}
		if sess := long.sess; sess != nil {
			for r := 1; r < len(long.granted); r++ {
				if &sess.Runtime(r).Perm()[0] != &sess.Runtime(0).Perm()[0] {
					t.Errorf("sub-rank %d holds its own copy of the permutation", r)
				}
			}
			shared = true
		}
		s.mu.Unlock()
	}
	if err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, State.Finished, 10*time.Second)
	released(long)

	spec.Iters = 20
	st, err = s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, State.Finished, 10*time.Second)
	if final.State != Done {
		t.Fatalf("job ended %q: %s", final.State, final.Error)
	}
	if final.Report == nil || final.Report.Iters != spec.Iters || len(final.Result) == 0 {
		t.Errorf("done job serves report %+v and %d result values", final.Report, len(final.Result))
	}
	released(record(st.ID))
}
