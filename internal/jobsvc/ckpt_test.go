package jobsvc

import (
	"strings"
	"testing"
	"time"

	"stance/internal/ckpt"
	"stance/internal/comm"
	"stance/internal/vtime"
)

// TestJobRecoversFromKill: a job whose rank dies mid-run recovers on
// the survivors, finishes Done with the recovery in its report, and
// its result is bit-identical to a dedicated run that never failed.
func TestJobRecoversFromKill(t *testing.T) {
	s, err := New(Config{PoolRanks: 3, Net: comm.TransportOptions{Clock: vtime.NewSim()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := Spec{
		Name:         "phoenix",
		Graph:        GraphSpec{Kind: "honeycomb", Rows: 8, Cols: 10},
		Iters:        30,
		Ranks:        3,
		CheckEvery:   5,
		ComputeCost:  50 * time.Microsecond,
		ReturnResult: true,
		Checkpoint: &ckpt.Config{
			DetectTimeout: time.Second,
			Kills:         []ckpt.Kill{{Rank: 2, Iter: 10}},
		},
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, State.Finished, 10*time.Second)
	if final.State != Done {
		t.Fatalf("job ended %q: %s", final.State, final.Error)
	}
	if final.Report == nil || len(final.Report.Recoveries) != 1 {
		t.Fatalf("report %+v, want exactly one recovery", final.Report)
	}
	rec := final.Report.Recoveries[0]
	if len(rec.Dead) != 1 || rec.Dead[0] != 2 || rec.Iter != 10 {
		t.Fatalf("recovery %+v, want rank 2 dead at iteration 10", rec)
	}
	requireBitExact(t, st.ID, final.Result, dedicatedResult(t, spec, len(final.Granted)))
}

// TestUnrecoverableJobFailsAndFreesPool: a job that dies
// unrecoverably (its coordinator is killed) must end Failed with the
// cause in its status — not hang its grant — and the freed ranks must
// immediately serve the next job.
func TestUnrecoverableJobFailsAndFreesPool(t *testing.T) {
	s, err := New(Config{PoolRanks: 2, Net: comm.TransportOptions{Clock: vtime.NewSim()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	doomed := Spec{
		Name:        "doomed",
		Graph:       GraphSpec{Kind: "honeycomb", Rows: 6, Cols: 8},
		Iters:       20,
		Ranks:       2,
		CheckEvery:  5,
		ComputeCost: 50 * time.Microsecond,
		Checkpoint: &ckpt.Config{
			DetectTimeout: time.Second,
			Kills:         []ckpt.Kill{{Rank: 0, Iter: 5}},
		},
	}
	st, err := s.Submit(doomed)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, State.Finished, 10*time.Second)
	if final.State != Failed {
		t.Fatalf("doomed job ended %q, want %q (error %q)", final.State, Failed, final.Error)
	}
	if !strings.Contains(final.Error, "unrecoverable") {
		t.Fatalf("failure cause %q does not name the unrecoverable crash", final.Error)
	}

	// The grant must be back in the pool: a full-width job runs to
	// completion right after.
	next := Spec{
		Name:         "after",
		Graph:        GraphSpec{Kind: "honeycomb", Rows: 6, Cols: 8},
		Iters:        20,
		Ranks:        2,
		CheckEvery:   5,
		ComputeCost:  50 * time.Microsecond,
		ReturnResult: true,
	}
	st2, err := s.Submit(next)
	if err != nil {
		t.Fatal(err)
	}
	final2 := waitState(t, s, st2.ID, State.Finished, 10*time.Second)
	if final2.State != Done {
		t.Fatalf("follow-up job ended %q: %s", final2.State, final2.Error)
	}
	if len(final2.Granted) != 2 {
		t.Fatalf("follow-up granted %v, want both pool ranks back", final2.Granted)
	}
	requireBitExact(t, st2.ID, final2.Result, dedicatedResult(t, next, 2))
}

// TestKillBeyondGrantIsDropped: a kill naming a rank the scheduler
// never granted is a no-op, not a launch failure. A blocker job holds
// one pool rank so the victim job wants 3 but is granted 2, leaving
// its kill of sub-rank 2 pointing at a rank that never existed.
func TestKillBeyondGrantIsDropped(t *testing.T) {
	s, err := New(Config{PoolRanks: 3, Net: comm.TransportOptions{Clock: vtime.NewSim()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blocker := Spec{
		Name:        "blocker",
		Graph:       GraphSpec{Kind: "honeycomb", Rows: 6, Cols: 8},
		Iters:       50,
		Ranks:       1,
		ComputeCost: 50 * time.Microsecond,
	}
	if _, err := s.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Graph:       GraphSpec{Kind: "honeycomb", Rows: 6, Cols: 8},
		Iters:       20,
		Ranks:       3, // wants 3; the blocker holds one, so granted 2
		MinRanks:    2,
		CheckEvery:  5,
		ComputeCost: 50 * time.Microsecond,
		Checkpoint: &ckpt.Config{
			DetectTimeout: time.Second,
			Kills:         []ckpt.Kill{{Rank: 2, Iter: 5}},
		},
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, State.Finished, 10*time.Second)
	if final.State != Done {
		t.Fatalf("job ended %q: %s", final.State, final.Error)
	}
	if len(final.Granted) != 2 {
		t.Fatalf("granted %v, want 2 ranks with the blocker holding the third", final.Granted)
	}
	if final.Report == nil || len(final.Report.Recoveries) != 0 {
		t.Fatalf("report %+v, want no recoveries (the killed rank was never granted)", final.Report)
	}
}
