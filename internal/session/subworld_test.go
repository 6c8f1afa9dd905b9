package session

import (
	"context"
	"sync"
	"testing"
	"time"

	"stance/internal/comm"
	"stance/internal/graph"
	"stance/internal/mesh"
	"stance/internal/vtime"
)

// TestConcurrentSubWorldSessions is the stanced multiplexing pattern at
// the session layer: three disjoint sub-worlds carved from one shared
// 7-rank parent each drive an independent session concurrently — one
// of them elastic, retiring and re-admitting a rank mid-run through
// the epoch protocol. The shared mailboxes and the concurrent traffic
// must not perturb any session: every gathered result has to be
// bit-identical to the same configuration run alone in a dedicated
// world. CI's -race pass makes this double as the data-race pin for
// endpoint sharing across concurrent sessions.
func TestConcurrentSubWorldSessions(t *testing.T) {
	parent, err := comm.Open("inproc", 7, comm.TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()

	groups := [][]int{{0, 1, 2}, {3, 4}, {5, 6}}
	const iters = 60

	hc, err := mesh.Honeycomb(10, 12)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := mesh.GridTriangulated(8, 8, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	an, err := mesh.Annulus(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{hc, gr, an}

	// makeCfg is the shared per-group configuration; group 0 runs
	// elastic so the driver below can retire and re-admit a rank
	// mid-run via explicit resizes — exactly how the job service
	// reallocates pool ranks.
	makeCfg := func(gi int) Config {
		cfg := Config{OrderName: "rcb", CheckEvery: 5, WorkRep: 2}
		if gi == 0 {
			cfg.Elastic = true
		}
		return cfg
	}

	// Ground truth: each configuration alone in a dedicated fixed world
	// of the group's size, no churn (membership changes are
	// numerics-preserving, pinned elsewhere).
	refs := make([][]float64, len(groups))
	for gi, members := range groups {
		cfg := makeCfg(gi)
		cfg.Elastic = false
		cfg.Procs = len(members)
		s, err := New(context.Background(), graphs[gi], cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(iters); err != nil {
			t.Fatal(err)
		}
		if refs[gi], err = s.ResultByVertex(); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}

	// The concurrent run: all three sessions at once on the one parent.
	results := make([][]float64, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for gi, members := range groups {
		subs := make([]*comm.Comm, len(members))
		for i, m := range members {
			sc, err := parent.Comm(m).Sub(members)
			if err != nil {
				t.Fatal(err)
			}
			subs[i] = sc
		}
		w := comm.WrapWorld(subs)
		wg.Add(1)
		go func(gi int, w *comm.World) {
			defer wg.Done()
			defer w.Close()
			errs[gi] = func() error {
				cfg := makeCfg(gi)
				cfg.World = w
				s, err := New(context.Background(), graphs[gi], cfg)
				if err != nil {
					return err
				}
				defer s.Close()
				transitions := 0
				if gi == 0 {
					// Shrink to {0,1} mid-run and grow back, in segments,
					// while the other two sessions keep running.
					for _, seg := range []struct {
						resize []int
						iters  int
					}{{nil, 15}, {[]int{0, 1}, 25}, {[]int{0, 1, 2}, 20}} {
						if seg.resize != nil {
							if err := s.Resize(seg.resize); err != nil {
								return err
							}
						}
						rep, err := s.Run(seg.iters)
						if err != nil {
							return err
						}
						transitions += len(rep.Members)
					}
					if transitions != 2 {
						t.Errorf("elastic group recorded %d membership transitions, want 2", transitions)
					}
				} else if _, err := s.Run(iters); err != nil {
					return err
				}
				results[gi], err = s.ResultByVertex()
				return err
			}()
		}(gi, w)
	}
	wg.Wait()

	for gi := range groups {
		if errs[gi] != nil {
			t.Fatalf("group %d session: %v", gi, errs[gi])
		}
		if len(results[gi]) != len(refs[gi]) {
			t.Fatalf("group %d gathered %d values, dedicated run %d", gi, len(results[gi]), len(refs[gi]))
		}
		for v := range refs[gi] {
			if results[gi][v] != refs[gi][v] {
				t.Fatalf("group %d vertex %d: shared-pool %v != dedicated %v (must be bit-identical)",
					gi, v, results[gi][v], refs[gi][v])
			}
		}
	}
}

// TestAdoptedWorldOwnsTheNetwork: an adopted world's transport is
// already built, so a session given one rejects every network setting
// of its own — a clock above all, which the transport would never run
// on while the session measured on it — and measures on the world's
// clock instead.
func TestAdoptedWorldOwnsTheNetwork(t *testing.T) {
	g, err := mesh.Honeycomb(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	clk := vtime.NewSim()
	w, err := comm.Open("inproc", 2, comm.TransportOptions{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for name, cfg := range map[string]Config{
		"Net.Clock":       {Net: comm.TransportOptions{Clock: vtime.NewSim()}},
		"Net.Model":       {Net: comm.TransportOptions{Model: &comm.Model{Latency: time.Millisecond}}},
		"Net.FlushPeriod": {Net: comm.TransportOptions{FlushPeriod: time.Millisecond}},
		"Transport":       {Transport: "inproc"},
		"Groups":          {Groups: 2},
	} {
		cfg.World = w
		if s, err := New(context.Background(), g, cfg); err == nil {
			s.Close()
			t.Errorf("%s alongside an adopted World accepted", name)
		}
	}
	s, err := New(context.Background(), g, Config{World: w})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.clock != vtime.Clock(clk) {
		t.Errorf("session clock %T is not the adopted world's", s.clock)
	}
}
