package session

import (
	"context"
	"math"
	"testing"
	"time"

	"stance/internal/comm"
	"stance/internal/graph"
	"stance/internal/loadbal"
	"stance/internal/mesh"
	"stance/internal/vtime"
)

// bandDumbbell builds the paper's Section 4 nonuniform-network stress
// graph: two dense bands of a and b vertices (every vertex joined to
// its k nearest successors within the band) connected by a single
// bridge edge. In identity order any cut inside a band crosses ~k²/2
// edges; the cut at the bridge crosses exactly one. A flat equal cut
// of a+b vertices lands inside the first band whenever a != b, so the
// group boundary drags a wide ghost frontier across the slow link —
// the hierarchical cut slides it onto the bridge.
func bandDumbbell(t *testing.T, a, b, k int) *graph.Graph {
	t.Helper()
	n := a + b
	var edges []graph.Edge
	band := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i + 1; j <= i+k && j < hi; j++ {
				edges = append(edges, graph.Edge{U: int32(i), V: int32(j)})
			}
		}
	}
	band(0, a)
	band(a, n)
	edges = append(edges, graph.Edge{U: int32(a - 1), V: int32(a)})
	g, err := graph.FromEdges(n, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// hierRun executes one deterministic virtual-time session on the
// dumbbell and returns its report and gathered result.
func hierRun(t *testing.T, g *graph.Graph, iters int, mutate func(*Config)) (*RunReport, []float64) {
	t.Helper()
	topo, err := comm.ContiguousGroups(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Procs: 4,
		Net: comm.TransportOptions{
			Clock:    vtime.NewSim(),
			Topology: topo,
			// Intra-group links are fast; the inter-group link is both
			// higher-latency and two orders of magnitude thinner, so the
			// bytes a cut pushes across it dominate the phase time.
			Model:      &comm.Model{Latency: 20 * time.Microsecond, Bandwidth: 1e7},
			InterModel: &comm.Model{Latency: 200 * time.Microsecond, Bandwidth: 1e5},
		},
		ComputeCost: time.Microsecond,
	}
	if mutate != nil {
		mutate(&cfg)
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
	vals, err := s.ResultByVertex()
	if err != nil {
		t.Fatal(err)
	}
	return rep, vals
}

func sameBits(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d values", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: value %d differs: %v vs %v", name, i, a[i], b[i])
		}
	}
}

// TestHierarchicalCutBeatsFlatOnSlowLink is the tentpole acceptance
// test: on a two-level world whose inter-group link is ~10× slower,
// the hierarchy-aware cut (which slides the group boundary onto the
// dumbbell's bridge) must beat the flat equal cut (which lands inside
// a dense band) on exact virtual wall time, because it pushes a
// one-edge ghost frontier across the slow link instead of a ~20-edge
// one. The numerics must not notice: both cuts, and the topology-free
// reference, produce bit-identical solution vectors.
func TestHierarchicalCutBeatsFlatOnSlowLink(t *testing.T) {
	g := bandDumbbell(t, 55, 45, 6)
	const iters = 30

	hier, hierVals := hierRun(t, g, iters, nil)
	flat, flatVals := hierRun(t, g, iters, func(cfg *Config) { cfg.FlatCut = true })

	if hier.Wall >= flat.Wall {
		t.Errorf("hierarchical cut did not beat the flat cut on the slow link: hier %v vs flat %v",
			hier.Wall, flat.Wall)
	}
	if hier.InterBytes >= flat.InterBytes {
		t.Errorf("hierarchical cut moved no fewer bytes across the slow link: hier %d vs flat %d",
			hier.InterBytes, flat.InterBytes)
	}
	if hier.InterMsgs == 0 || flat.InterMsgs == 0 {
		t.Errorf("inter-group counters silent: hier %d, flat %d msgs", hier.InterMsgs, flat.InterMsgs)
	}
	t.Logf("hier: wall %v, %d inter msgs, %d inter bytes", hier.Wall, hier.InterMsgs, hier.InterBytes)
	t.Logf("flat: wall %v, %d inter msgs, %d inter bytes", flat.Wall, flat.InterMsgs, flat.InterBytes)

	// Same graph, same math: partitioning must not change the answer.
	sameBits(t, "hier vs flat cut", hierVals, flatVals)

	// On a uniform network (no InterModel) the hierarchy is free to be
	// present without cost: results stay bit-identical to a plain flat
	// world, and the counters still attribute the crossings.
	uniHier, uniHierVals := hierRun(t, g, iters, func(cfg *Config) { cfg.Net.InterModel = nil })
	_, uniFlatVals := hierRun(t, g, iters, func(cfg *Config) {
		cfg.Net.Topology, cfg.Net.InterModel = nil, nil
	})
	sameBits(t, "uniform hier vs flat world", uniHierVals, uniFlatVals)
	sameBits(t, "uniform vs priced", uniHierVals, hierVals)
	if uniHier.InterMsgs != hier.InterMsgs {
		t.Errorf("crossing count depends on pricing: %d with InterModel, %d without",
			hier.InterMsgs, uniHier.InterMsgs)
	}
}

// TestCheckRoundSlowLinkTraffic pins what the one boundary round
// costs the slow link, from the outside, on RunReport counters alone:
// with 8 ranks in 2 groups, each balance check costs exactly
// 2·(P − P/G) = 8 slow-link messages — the 4 reports of the far group
// in to rank 0 and the 4 verdict crossings back out. The environment is
// uniform so no check remaps and the data-path traffic is identical to
// a balancer-free run's, which makes the per-check delta exact, not
// approximate. A topology-aware fan-in of the round has this to beat.
func TestCheckRoundSlowLinkTraffic(t *testing.T) {
	const p, groups, iters, checkEvery = 8, 2, 30, 10
	const nChecks = 2 // checks at 10 and 20; 30 is deferred past the Run
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := comm.ContiguousGroups(p, groups)
	if err != nil {
		t.Fatal(err)
	}
	run := func(bal *loadbal.Config) *RunReport {
		s, err := New(context.Background(), g, Config{
			Procs: p,
			Net: comm.TransportOptions{
				Clock:      vtime.NewSim(),
				Topology:   topo,
				Model:      &comm.Model{Latency: 10 * time.Microsecond},
				InterModel: &comm.Model{Latency: 100 * time.Microsecond},
			},
			OrderName:   "rcb",
			ComputeCost: 2 * time.Microsecond,
			CheckEvery:  checkEvery,
			Balancer:    bal,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rep, err := s.Run(iters)
		if err != nil {
			t.Fatal(err)
		}
		if bal != nil {
			if len(rep.Checks) != nChecks {
				t.Fatalf("%d checks, want %d", len(rep.Checks), nChecks)
			}
			for _, ev := range rep.Checks {
				if ev.Decision.Remapped {
					t.Fatalf("uniform environment remapped at iteration %d", ev.Iter)
				}
			}
		}
		return rep
	}

	base := run(nil)
	checked := run(&loadbal.Config{})
	if base.InterMsgs == 0 {
		t.Fatal("no inter-group traffic measured at all; the counter is broken")
	}
	if got, want := checked.InterMsgs-base.InterMsgs, int64(2*(p-p/groups)*nChecks); got != want {
		t.Errorf("checks cost %d slow-link messages, want exactly 2(P-P/G)·checks = %d", got, want)
	}
	// A report is 24 bytes (iteration, rate, inspector); a continue
	// verdict is 96 (opcode, three predictions, eight weights).
	if got, want := checked.InterBytes-base.InterBytes, int64((p-p/groups)*(24+96)*nChecks); got != want {
		t.Errorf("checks cost %d slow-link bytes, want %d", got, want)
	}
}

// TestSessionTopologyValidation covers the configuration surface added
// with two-level worlds.
func TestSessionTopologyValidation(t *testing.T) {
	g, err := mesh.Honeycomb(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := comm.ContiguousGroups(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// InterModel without a Topology is meaningless.
	if _, err := New(context.Background(), g, Config{
		Procs: 4, Net: comm.TransportOptions{InterModel: &comm.Model{Latency: time.Millisecond}},
	}); err == nil {
		t.Error("InterModel without Topology accepted")
	}
	// A topology must cover exactly the world's ranks.
	if _, err := New(context.Background(), g, Config{Procs: 3, Net: comm.TransportOptions{Topology: topo}}); err == nil {
		t.Error("4-rank topology on a 3-rank world accepted")
	}
	// An adopted world's transport is already built; a topology cannot
	// be injected after the fact.
	w, err := comm.Open("inproc", 4, comm.TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := New(context.Background(), g, Config{World: w, Net: comm.TransportOptions{Topology: topo}}); err == nil {
		t.Error("Topology alongside an adopted World accepted")
	}
}
