package stance_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stance"
	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/solver"
)

// TestSessionFacade drives the one-call API end to end the way the
// quickstart does: options in, report and result out. It runs on the
// simulated clock with virtual compute, so the 2.5x imbalance the
// balancer must see is exact and not a wall-clock measurement of
// microsecond kernels (which missed the remap about once in 70 runs).
func TestSessionFacade(t *testing.T) {
	g, err := stance.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	est, err := stance.NewEstimator(stance.EstimateEWMA, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := stance.NewSession(context.Background(), g, 3,
		stance.WithClock(stance.NewSimClock()),
		stance.WithVirtualCompute(time.Microsecond),
		stance.WithOrdering("rcb"),
		stance.WithEnv(stance.LoadedEnv(3, 2.5)),
		stance.WithWorkRep(2),
		stance.WithCheckEvery(4),
		stance.WithBalancer(stance.BalancerConfig{Horizon: 50, Estimator: est}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rep, err := s.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ranks) != 3 || rep.Wall <= 0 {
		t.Errorf("report: %d ranks, wall %v", len(rep.Ranks), rep.Wall)
	}
	if len(rep.Remaps()) == 0 {
		t.Error("2.5x imbalance not rebalanced")
	}
	y, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != g.N {
		t.Errorf("gathered %d values for %d vertices", len(y), g.N)
	}
	byVertex, err := s.ResultByVertex()
	if err != nil {
		t.Fatal(err)
	}
	if len(byVertex) != g.N {
		t.Errorf("unpermuted %d values for %d vertices", len(byVertex), g.N)
	}
}

// TestSessionFacadeTCP runs a session over the TCP transport selected
// by name through the registry.
func TestSessionFacadeTCP(t *testing.T) {
	g, err := stance.Honeycomb(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := stance.NewSession(context.Background(), g, 2,
		stance.WithTransport("tcp"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.World().Transport(); got != "tcp" {
		t.Errorf("Transport() = %q", got)
	}
	if _, err := s.Run(3); err != nil {
		t.Fatal(err)
	}
}

// TestSessionFacadeWeights exercises the remaining options: explicit
// capabilities, vertex weights and a custom order function.
func TestSessionFacadeWeights(t *testing.T) {
	g, err := stance.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	vw := make([]float64, g.N)
	for v := range vw {
		vw[v] = float64(g.Degree(v)) + 1
	}
	s, err := stance.NewSession(context.Background(), g, 2,
		stance.WithOrderFunc(stance.RCB),
		stance.WithWeights(1, 3),
		stance.WithVertexWeights(vw),
		stance.WithNetworkModel(stance.Ethernet(0.01)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	// A 1:3 capability split must give rank 1 roughly three times the
	// items of rank 0 under degree weighting.
	n0 := s.Runtime(0).LocalN()
	n1 := s.Runtime(1).LocalN()
	if n0 >= n1 {
		t.Errorf("weights 1:3 gave rank 0 %d items, rank 1 %d", n0, n1)
	}
}

// TestSessionFacadeGroups drives a two-level world through the
// options: the run must count slow-link traffic. (What the
// hierarchy-aware cut saves against the flat control arm, bit-exact, is
// pinned by internal/session TestHierarchicalCutBeatsFlatOnSlowLink.)
func TestSessionFacadeGroups(t *testing.T) {
	g, err := stance.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	s, err := stance.NewSession(context.Background(), g, 4,
		stance.WithOrdering("rcb"),
		stance.WithClock(stance.NewSimClock()),
		stance.WithVirtualCompute(time.Microsecond),
		stance.WithNetworkModel(stance.Ethernet(0.1)),
		stance.WithGroups(2),
		stance.WithInterModel(stance.Ethernet(1)))
	if err != nil {
		t.Fatal(err)
	}
	hier, err := s.Run(6)
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hier.InterMsgs <= 0 || hier.InterBytes <= 0 {
		t.Errorf("hierarchical run counted no slow-link traffic: %d msgs, %d bytes",
			hier.InterMsgs, hier.InterBytes)
	}

	// An explicit topology through NewTopology must work too, and a
	// conflicting WithGroups+WithTopology must fail loudly.
	topo, err := stance.NewTopology([]int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err = stance.NewSession(context.Background(), g, 4, stance.WithTopology(topo))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := stance.NewSession(context.Background(), g, 4,
		stance.WithTopology(topo), stance.WithGroups(2)); err == nil {
		t.Error("WithTopology + WithGroups accepted; want a loud conflict")
	}
}

// TestWithOverlapIsDepthOne pins the benchmark-kept spelling: it is
// WithPipeline(1), applied in order like every option.
func TestWithOverlapIsDepthOne(t *testing.T) {
	g, err := stance.Honeycomb(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		opts []stance.Option
		want int
	}{
		{nil, 0},
		{[]stance.Option{stance.WithOverlap()}, 1},
		{[]stance.Option{stance.WithPipeline(2), stance.WithOverlap()}, 1},
		{[]stance.Option{stance.WithOverlap(), stance.WithPipeline(2)}, 2},
	} {
		s, err := stance.NewSession(context.Background(), g, 2, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Solver(0).Pipeline(); got != c.want {
			t.Errorf("executor depth %d, want %d", got, c.want)
		}
		s.Close()
	}
}

// TestTransportTuningComposes: the network options build one
// TransportOptions, and WithTransportTuning keeps the model, clock,
// topology and inter-group model it leaves nil, so the options give
// the same network in any order.
func TestTransportTuningComposes(t *testing.T) {
	clk := stance.NewSimClock()
	model, inter := stance.Ethernet(0.1), stance.Ethernet(1)
	topo, err := stance.ContiguousGroups(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	tuning := stance.WithTransportTuning(stance.TransportOptions{FlushPeriod: time.Millisecond, Compression: "flate"})
	network := []stance.Option{
		stance.WithClock(clk), stance.WithNetworkModel(model),
		stance.WithTopology(topo), stance.WithInterModel(inter),
	}
	want := stance.TransportOptions{
		Model: model, Clock: clk, Topology: topo, InterModel: inter,
		FlushPeriod: time.Millisecond, Compression: "flate",
	}
	for name, opts := range map[string][]stance.Option{
		"tuning last":   append(append([]stance.Option{}, network...), tuning),
		"tuning first":  append([]stance.Option{tuning}, network...),
		"tuning middle": {network[0], network[1], tuning, network[2], network[3]},
	} {
		var cfg stance.SessionConfig
		for _, o := range opts {
			o(&cfg)
		}
		if cfg.Net != want {
			t.Errorf("%s: Net = %+v, want %+v", name, cfg.Net, want)
		}
	}

	// One tuning Option applied to two configs leaves each with its
	// own clock and model.
	clk2, model2 := stance.NewSimClock(), stance.Ethernet(2)
	var a, b stance.SessionConfig
	for _, o := range []stance.Option{stance.WithClock(clk), stance.WithNetworkModel(model), tuning} {
		o(&a)
	}
	for _, o := range []stance.Option{stance.WithClock(clk2), stance.WithNetworkModel(model2), tuning} {
		o(&b)
	}
	if a.Net.Clock != clk || a.Net.Model != model {
		t.Errorf("first config: clock %p model %p, want %p %p", a.Net.Clock, a.Net.Model, clk, model)
	}
	if b.Net.Clock != clk2 || b.Net.Model != model2 {
		t.Errorf("reused tuning: clock %p model %p, want %p %p", b.Net.Clock, b.Net.Model, clk2, model2)
	}
	var c stance.SessionConfig
	tuning(&c)
	if c.Net.Clock != nil || c.Net.Model != nil || c.Net.Topology != nil || c.Net.InterModel != nil {
		t.Errorf("reused tuning on an empty config carried over %+v", c.Net)
	}
}

// TestSessionTransformsOnce: Phase A runs once per session whatever the
// world size and whatever happens to the membership afterwards; every
// rank's runtime shares the one permutation; and the numbers are those
// of ranks that each prepared their own transform through core.New.
func TestSessionTransformsOnce(t *testing.T) {
	const p, iters = 16, 40
	g, err := stance.GridMesh(40, 40, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}

	// The reference: hand-wired ranks, no shared transform.
	var want []float64
	world, err := comm.Open("inproc", 4, comm.TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = world.SPMD(context.Background(), func(c *comm.Comm) error {
		rt, err := core.New(c, g, core.Config{Order: stance.RCB})
		if err != nil {
			return err
		}
		sol, err := solver.New(rt, nil, 1)
		if err != nil {
			return err
		}
		if err := sol.Run(iters, nil); err != nil {
			return err
		}
		y, err := sol.GatherResult(0)
		if c.Rank() == 0 {
			want = y
		}
		return err
	})
	world.Close()
	if err != nil {
		t.Fatal(err)
	}

	all := make([]int, p)
	for i := range all {
		all[i] = i
	}
	sim := []stance.Option{stance.WithClock(stance.NewSimClock()), stance.WithVirtualCompute(10 * time.Microsecond)}
	cases := []struct {
		name string
		opts []stance.Option
		run  func(s *stance.Session) error
	}{
		{"fixed", nil, func(s *stance.Session) error {
			_, err := s.Run(iters)
			return err
		}},
		{"elastic", []stance.Option{stance.WithElastic()}, func(s *stance.Session) error {
			if err := s.Resize(all[:5]); err != nil {
				return err
			}
			if _, err := s.Run(iters / 2); err != nil {
				return err
			}
			if err := s.Resize(all); err != nil {
				return err
			}
			rep, err := s.Run(iters / 2)
			if err == nil && len(rep.Members) == 0 {
				err = errors.New("no membership transition committed")
			}
			return err
		}},
		{"kill-recover", append(sim, stance.WithCheckpoint(stance.CheckpointConfig{
			DetectTimeout: 50 * time.Millisecond,
			Kills:         []stance.Kill{{Rank: 5, Iter: 20}},
		})), func(s *stance.Session) error {
			rep, err := s.Run(iters)
			if err == nil && len(rep.Recoveries) != 1 {
				err = fmt.Errorf("%d recoveries, want 1", len(rep.Recoveries))
			}
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int32
			counting := func(g *stance.Graph) ([]int32, error) {
				calls.Add(1)
				return stance.RCB(g)
			}
			s, err := stance.NewSession(context.Background(), g, p,
				append(tc.opts, stance.WithOrderFunc(counting), stance.WithCheckEvery(10))...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := tc.run(s); err != nil {
				t.Fatal(err)
			}
			if n := calls.Load(); n != 1 {
				t.Errorf("ordering invoked %d times, want 1", n)
			}
			for r := 1; r < p; r++ {
				if &s.Runtime(r).Perm()[0] != &s.Runtime(0).Perm()[0] {
					t.Fatalf("rank %d holds its own copy of the permutation", r)
				}
			}
			got, err := s.Result()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("result has %d values, want %d", len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("element %d = %v, hand-wired ranks computed %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestSessionPhaseAErrors: what Phase A rejects comes out of NewSession
// worded as the runtime words it, and an owned world does not outlive
// the failure.
func TestSessionPhaseAErrors(t *testing.T) {
	g, err := stance.Honeycomb(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		opt  stance.Option
		want string
	}{
		{"ordering fails", stance.WithOrderFunc(func(*stance.Graph) ([]int32, error) {
			return nil, errors.New("boom")
		}), "core: ordering: boom"},
		{"ordering is no permutation", stance.WithOrderFunc(func(g *stance.Graph) ([]int32, error) {
			return make([]int32, g.N), nil
		}), "core: ordering: order: duplicate target 0"},
		{"short vertex weights", stance.WithVertexWeights([]float64{1, 2, 3}),
			fmt.Sprintf("core: 3 vertex weights for %d vertices", g.N)},
	} {
		for _, transport := range []string{"inproc", "tcp"} {
			s, err := stance.NewSession(context.Background(), g, 3, stance.WithTransport(transport), tc.opt)
			if err == nil {
				s.Close()
				t.Fatalf("%s on %s: accepted", tc.name, transport)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s on %s: error %q, want it to contain %q", tc.name, transport, err, tc.want)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after the failed NewSessions", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionRejectsNonFiniteWeights: a NaN or infinite processor
// weight is an error out of NewSession. It once cut int64 sizes out of
// NaN and panicked in a rank goroutine, where the caller cannot recover.
func TestSessionRejectsNonFiniteWeights(t *testing.T) {
	g, err := stance.Honeycomb(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][]float64{{math.NaN(), 1}, {math.Inf(1), 1}, {1, math.Inf(-1)}} {
		s, err := stance.NewSession(context.Background(), g, 2, stance.WithWeights(w...))
		if err == nil {
			s.Close()
			t.Fatalf("weights %v accepted", w)
		}
		if !strings.Contains(err.Error(), "want finite and non-negative") {
			t.Errorf("weights %v: error %q", w, err)
		}
	}
}

// TestSessionRejectsNonFiniteVertexWeights: the same for one NaN or
// infinite vertex weight, which the weighted cut's prefix sums once
// carried into the layout.
func TestSessionRejectsNonFiniteVertexWeights(t *testing.T) {
	g, err := stance.Honeycomb(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		vw := make([]float64, g.N)
		for i := range vw {
			vw[i] = 1
		}
		vw[g.N/2] = bad
		s, err := stance.NewSession(context.Background(), g, 2, stance.WithVertexWeights(vw))
		if err == nil {
			s.Close()
			t.Fatalf("vertex weight %g accepted", bad)
		}
		if !strings.Contains(err.Error(), "want finite and non-negative") {
			t.Errorf("vertex weight %g: error %q", bad, err)
		}
	}
}

// TestNewSessionRejectsBadValues: a negative count, duration or model
// value, or a kill naming a rank the world lacks, is an error out of
// NewSession — not a session that runs on defaults.
func TestNewSessionRejectsBadValues(t *testing.T) {
	g, err := stance.Honeycomb(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]stance.Option{
		"negative work rep":       stance.WithWorkRep(-5),
		"negative check interval": stance.WithCheckEvery(-3),
		"negative group count":    stance.WithGroups(-1),
		"negative detect timeout": stance.WithCheckpoint(stance.CheckpointConfig{DetectTimeout: -time.Second}),
		"kill beyond the world": stance.WithCheckpoint(stance.CheckpointConfig{
			Kills: []stance.Kill{{Rank: 5, Iter: 1}}}),
		"negative model latency": stance.WithNetworkModel(&stance.NetworkModel{Latency: -time.Millisecond}),
		"NaN safety factor":      stance.WithBalancer(stance.BalancerConfig{SafetyFactor: math.NaN()}),
	} {
		s, err := stance.NewSession(context.Background(), g, 2, opt)
		if err == nil {
			s.Close()
			t.Errorf("%s: accepted", name)
		}
	}
}
