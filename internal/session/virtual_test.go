package session

import (
	"context"
	"math"
	"testing"
	"time"

	"stance/internal/comm"
	"stance/internal/hetero"
	"stance/internal/loadbal"
	"stance/internal/mesh"
	"stance/internal/vtime"
)

// virtualCfg is a 3-rank virtual-time session over a latency-priced
// network with virtualized compute.
func virtualCfg(clk *vtime.Sim) Config {
	return Config{
		Procs:       3,
		Net:         comm.TransportOptions{Clock: clk, Model: &comm.Model{Latency: 100 * time.Microsecond}},
		OrderName:   "rcb",
		ComputeCost: 5 * time.Microsecond,
		CheckEvery:  10,
	}
}

// TestVirtualSessionDeterministic: the same virtual session run twice
// produces byte-identical gathered vectors and identical RunReports —
// wall time, per-rank timings, message counts, everything.
func TestVirtualSessionDeterministic(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*RunReport, []float64) {
		clk := vtime.NewSim()
		cfg := virtualCfg(clk)
		cfg.Env = hetero.PaperAdaptive(3, 2)
		cfg.Balancer = &loadbal.Config{}
		s, err := New(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rep, err := s.Run(35)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := s.ResultByVertex()
		if err != nil {
			t.Fatal(err)
		}
		return rep, vals
	}
	r1, v1 := run()
	r2, v2 := run()
	if len(v1) != len(v2) {
		t.Fatalf("gathered %d vs %d values", len(v1), len(v2))
	}
	for i := range v1 {
		if math.Float64bits(v1[i]) != math.Float64bits(v2[i]) {
			t.Fatalf("value %d differs between identical virtual runs: %v vs %v", i, v1[i], v2[i])
		}
	}
	if r1.Wall != r2.Wall {
		t.Errorf("Wall differs between identical virtual runs: %v vs %v", r1.Wall, r2.Wall)
	}
	if r1.Msgs != r2.Msgs || r1.Bytes != r2.Bytes {
		t.Errorf("traffic differs: %d/%d vs %d/%d msgs/bytes", r1.Msgs, r1.Bytes, r2.Msgs, r2.Bytes)
	}
	if len(r1.Checks) != len(r2.Checks) {
		t.Fatalf("%d vs %d checks", len(r1.Checks), len(r2.Checks))
	}
	for i := range r1.Checks {
		a, b := r1.Checks[i], r2.Checks[i]
		if a.Iter != b.Iter || a.Decision.Remapped != b.Decision.Remapped ||
			a.Decision.CheckTime != b.Decision.CheckTime || a.Decision.RemapTime != b.Decision.RemapTime {
			t.Errorf("check %d differs: %+v vs %+v", i, a, b)
		}
	}
	for i := range r1.Ranks {
		if r1.Ranks[i] != r2.Ranks[i] {
			t.Errorf("rank %d usage differs: %+v vs %+v", i, r1.Ranks[i], r2.Ranks[i])
		}
	}
	if r1.Exec != r2.Exec {
		t.Errorf("Exec differs: %+v vs %+v", r1.Exec, r2.Exec)
	}
}

// TestVirtualTraceForcesRemapAtPredictableTime is the trace-driven
// adaptive scenario on the simulated clock: rank 2's capability drops
// 4x at iteration 10 (a hetero.Trace step), so the check window
// [10,20) measures the slowdown and the balancer must remap exactly at
// the iteration-20 boundary — never at 10 (the window [0,10) was
// uniform) — shifting load off rank 2. Deterministic down to the
// iteration number because the measurement is virtual.
func TestVirtualTraceForcesRemapAtPredictableTime(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	clk := vtime.NewSim()
	cfg := virtualCfg(clk)
	env := hetero.Uniform(3)
	env.Traces = []hetero.Trace{{Rank: 2, Steps: []hetero.TraceStep{{FromIter: 10, Capability: 0.25}}}}
	cfg.Env = env
	cfg.Balancer = &loadbal.Config{}
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	remaps := rep.Remaps()
	if len(remaps) == 0 {
		t.Fatal("trace-induced 4x imbalance produced no remap")
	}
	if got := remaps[0].Iter; got != 20 {
		t.Errorf("first remap at iteration %d, want exactly 20 (first boundary whose window saw the trace step)", got)
	}
	for _, ev := range rep.Checks {
		if ev.Iter == 10 && ev.Decision.Remapped {
			t.Errorf("remap at iteration 10, before the trace step was observable")
		}
	}
	// The remap must shift load away from the slowed rank: its new
	// weight is the smallest.
	w := remaps[0].Decision.NewWeights
	if len(w) != 3 || w[2] >= w[0] || w[2] >= w[1] {
		t.Errorf("remap weights %v do not shift load off the slowed rank 2", w)
	}
	// And the slow rank's measured compute rate is 4x the others', an
	// exact virtual quantity: capability 0.25 → work factor 4.
	if rep.Ranks[2].Items == 0 || rep.Ranks[0].Items == 0 {
		t.Fatal("ranks measured no items")
	}
}

// TestVirtualElasticChurn: outages on the virtual clock drive the full
// elastic protocol — shrink, grow, migrations — deterministically and
// instantly; the result matches a fixed-world run bit for bit.
func TestVirtualElasticChurn(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 60
	run := func(virtual, elastic bool) []float64 {
		cfg := Config{Procs: 3, OrderName: "rcb", CheckEvery: 10}
		if virtual {
			clk := vtime.NewSim()
			cfg = virtualCfg(clk)
		}
		if elastic {
			cfg.Outages = []hetero.Outage{{Rank: 2, FromIter: 20, UntilIter: 40}}
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
		if elastic && len(rep.Members) != 2 {
			t.Fatalf("expected 2 membership transitions (retire + readmit), got %d", len(rep.Members))
		}
		vals, err := s.ResultByVertex()
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	want := run(false, false) // real clock, fixed world: the reference
	got := run(true, true)    // virtual clock, elastic churn
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("vertex %d differs from the fixed-world reference: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestVirtualSessionWallIsVirtual: a session whose per-iteration
// virtual cost adds up to minutes completes in real milliseconds, and
// the report's Wall is the exact virtual duration.
func TestVirtualSessionWallIsVirtual(t *testing.T) {
	g, err := mesh.Honeycomb(10, 12)
	if err != nil {
		t.Fatal(err)
	}
	clk := vtime.NewSim()
	s, err := New(context.Background(), g, Config{
		Procs:       2,
		Net:         comm.TransportOptions{Clock: clk},
		ComputeCost: time.Millisecond, // 120 elements × 1ms × 100 iters = 6s+ virtual per rank
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wall := time.Now()
	rep, err := s.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	real := time.Since(wall)
	if rep.Wall < 5*time.Second {
		t.Errorf("virtual Wall = %v, want minutes-scale virtual time", rep.Wall)
	}
	if real > 10*time.Second {
		t.Errorf("virtual run took %v of real time", real)
	}
	if real > rep.Wall/10 {
		t.Errorf("virtual run took %v real for %v virtual; the clock is not simulating", real, rep.Wall)
	}
}

// TestTCPRejectsSimClock pins the documented transport limitation:
// real sockets deliver on the wall clock, which a virtual clock cannot
// observe, so opening a tcp world on a Sim fails loudly.
func TestTCPRejectsSimClock(t *testing.T) {
	g, err := mesh.Honeycomb(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(context.Background(), g, Config{
		Procs:     2,
		Transport: "tcp",
		Net:       comm.TransportOptions{Clock: vtime.NewSim()},
	})
	if err == nil {
		t.Fatal("tcp transport accepted a simulated clock")
	}
}

// TestVirtualReportIgnoresRowOrder pins an adaptive virtual-time run —
// mixed-degree mesh, fractional work factors, balancer remaps — to the
// report the runtime produced before the plan started ordering each
// rank's rows for the kernel. The virtual compute charge is
// cost × workRep × factor × rows and Items counts rows, so neither may
// move with the order the rows are swept in, at any depth. Comm is the
// solver's own stopwatch around exchanges, posts and waits: it reads
// the clock once per phase boundary, and no virtual time passes between
// the end of one phase and the start of the next, so it may not move
// with how many reads bracket a phase either — with one field or with
// two, whose posts and waits chain stamp to stamp. The values are the
// commit's that introduced each pin (Comm: 5b89575), to the nanosecond,
// except Wall and Msgs: the Run's two barriers went, 4 messages
// and 200 µs of modeled latency on the critical path each. Wall and
// Bytes moved once more when a remap verdict began carrying its
// layout: 72 bytes (2p+1 values) per remap, whose multicast to the
// three members charges rank 0 3 × 57.6 µs of modeled bandwidth. Msgs
// and Bytes moved once more when a multicast began counting the copies
// its medium carries: the model does not multicast, so each of the 3
// remap verdicts (136 bytes) counts 3 copies, not 1 — 6 messages and
// 816 bytes more, at the same Wall.
func TestVirtualReportIgnoresRowOrder(t *testing.T) {
	g, err := mesh.GridTriangulated(60, 60, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	type pin struct {
		wall time.Duration
		comm [4]time.Duration
	}
	for fields, tc := range map[int]struct {
		msgs, bytes int64
		compute     [4]time.Duration
		depths      [3]pin
	}{
		1: {368, 113784, [4]time.Duration{112665000, 92400000, 97987500, 80236200}, [3]pin{
			{163254550, [4]time.Duration{41673150, 61529550, 54554300, 69714050}},
			{162451300, [4]time.Duration{35529250, 52915250, 51080850, 62737650}},
			{162451300, [4]time.Duration{35529250, 52915250, 51080850, 62737650}},
		}},
		2: {718, 226128, [4]time.Duration{225330000, 184800000, 195975000, 160472400}, [3]pin{
			{324486650, [4]time.Duration{85997850, 127120050, 110439700, 143350750}},
			{323489000, [4]time.Duration{76248600, 112183500, 104731450, 128666300}},
			{323489000, [4]time.Duration{72898300, 106825100, 102046850, 125947400}},
		}},
	} {
		items := [4]int64{21460, 30800, 27030, 64710}
		for depth, want := range tc.depths {
			env := hetero.Uniform(4)
			env.Speeds[3] = 3
			env.Loads = []hetero.Load{{Rank: 0, Factor: 1.75}, {Rank: 2, Factor: 1.25, FromIter: 5}, {Rank: 3, Factor: 1.3, FromIter: 12}}
			s, err := New(context.Background(), g, Config{
				Procs: 4, OrderName: "rcb",
				Net:         comm.TransportOptions{Clock: vtime.NewSim(), Model: &comm.Model{Latency: 100 * time.Microsecond, Bandwidth: 1.25e6}},
				ComputeCost: time.Microsecond, WorkRep: 3, Pipeline: depth, Fields: fields, CheckEvery: 10,
				Env: env, Balancer: &loadbal.Config{},
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run(40)
			s.Close()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Wall != want.wall || len(rep.Remaps()) != 3 || rep.Msgs != tc.msgs || rep.Bytes != tc.bytes {
				t.Errorf("%d fields, depth %d: wall %d ns, %d remaps, %d msgs, %d bytes; want %d, 3, %d, %d",
					fields, depth, rep.Wall, len(rep.Remaps()), rep.Msgs, rep.Bytes, want.wall, tc.msgs, tc.bytes)
			}
			for r, got := range rep.Ranks {
				if got.Compute != tc.compute[r] || got.Items != int64(fields)*items[r] || got.Comm != want.comm[r] {
					t.Errorf("%d fields, depth %d, rank %d: compute %d ns, comm %d ns, %d items; want %d, %d, %d",
						fields, depth, r, got.Compute, got.Comm, got.Items, tc.compute[r], want.comm[r], int64(fields)*items[r])
				}
			}
		}
	}
}
