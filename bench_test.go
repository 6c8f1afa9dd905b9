// Benchmarks regenerating the paper's evaluation, one per table
// (cmd/stance-bench prints the full tables, the paper's published
// columns beside the measured ones).
package stance_test

import (
	"fmt"
	"testing"

	"stance/internal/bench"
	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/hetero"
	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/partition"
	"stance/internal/redist"
	"stance/internal/sched"
	"stance/internal/solver"
	"stance/internal/translate"
)

// benchNetScale keeps benchmark iterations fast; ratios between
// strategies are unaffected by a uniformly scaled network.
const benchNetScale = 0.05

// BenchmarkTable1MCR times the MinimizeCostRedistribution greedy
// search (paper Table 1: 0.33 ms at p=3 up to 17 ms at p=20 on SUN4).
func BenchmarkTable1MCR(b *testing.B) {
	for _, p := range []int{3, 5, 10, 15, 20} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.MeasureMCR(p, 1, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Remap times one full data redistribution between
// random layouts over the modeled Ethernet, with and without the MCR
// arrangement search (paper Table 2).
func BenchmarkTable2Remap(b *testing.B) {
	for _, size := range []int64{512, 16384, 131072} {
		for _, mcr := range []bool{true, false} {
			name := fmt.Sprintf("size=%d/mcr=%v", size, mcr)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bench.MeasureRemap(size, 5, 1, mcr, benchNetScale, int64(i)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable3Schedules times communication-schedule construction
// for the three inspector strategies on a paper-shaped mesh (paper
// Table 3: sorting-based builders beat the distributed-table baseline
// past three workstations).
func BenchmarkTable3Schedules(b *testing.B) {
	g, err := mesh.Honeycomb(100, 180)
	if err != nil {
		b.Fatal(err)
	}
	perm, err := order.RCB(g)
	if err != nil {
		b.Fatal(err)
	}
	tg, err := g.Permute(perm)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{2, 5} {
		for _, strategy := range []string{"sort1", "sort2", "simple"} {
			b.Run(fmt.Sprintf("p=%d/%s", p, strategy), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bench.MeasureScheduleBuild(tg, p, strategy, benchNetScale); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable4Static times a fixed-length run of the parallel loop
// in a static uniform environment for growing cluster sizes (paper
// Table 4).
func BenchmarkTable4Static(b *testing.B) {
	g, err := mesh.Honeycomb(100, 180)
	if err != nil {
		b.Fatal(err)
	}
	perm, err := order.RCB(g)
	if err != nil {
		b.Fatal(err)
	}
	tg, err := g.Permute(perm)
	if err != nil {
		b.Fatal(err)
	}
	const iters, workRep = 5, 100
	for _, p := range []int{1, 2, 5} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.MeasureStaticRun(tg, p, iters, workRep, benchNetScale, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable5Adaptive times the adaptive-environment protocol: a
// factor-3 competing load on workstation 0, with and without the
// 10-iteration load-balance check (paper Table 5).
func BenchmarkTable5Adaptive(b *testing.B) {
	opts := bench.Options{Quick: true, NetScale: benchNetScale, Seed: 1}
	b.Run("p=3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := bench.MeasureAdaptiveRun(opts, 3, 15, 100)
			if err != nil {
				b.Fatal(err)
			}
			if res.WithLB >= res.WithoutLB {
				b.Logf("iteration %d: LB run %v not faster than %v (timing noise)", i, res.WithLB, res.WithoutLB)
			}
		}
	})
}

// BenchmarkSolverIteration times one phase of the Figure 8 loop
// (exchange + kernel) end to end.
func BenchmarkSolverIteration(b *testing.B) {
	g, err := mesh.Honeycomb(100, 180)
	if err != nil {
		b.Fatal(err)
	}
	world, err := comm.Open("inproc", 4, comm.TransportOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer world.Close()
	b.ResetTimer()
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := core.New(c, g, core.Config{Order: order.RCB})
		if err != nil {
			return err
		}
		s, err := solver.New(rt, hetero.Uniform(4), 1)
		if err != nil {
			return err
		}
		return s.Run(b.N, nil)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOrderings times the locality transformations on the
// paper-scale mesh (Phase A cost).
func BenchmarkOrderings(b *testing.B) {
	g, err := mesh.Honeycomb(100, 180)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"rcb", "rib", "morton", "hilbert", "rcm", "spectral"} {
		f, err := order.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMCRCost compares MCR under the plain overlap cost
// and the message-aware cost, and against brute force (the design
// choice called out in DESIGN.md).
func BenchmarkAblationMCRCost(b *testing.B) {
	old, err := partition.NewBlock(100000, []float64{0.27, 0.18, 0.34, 0.07, 0.14})
	if err != nil {
		b.Fatal(err)
	}
	newW := []float64{0.10, 0.13, 0.29, 0.24, 0.24}
	cases := map[string]func() error{
		"overlap": func() error {
			_, err := redist.MinimizeCostRedistribution(old, newW, redist.OverlapCost)
			return err
		},
		"overlap+messages": func() error {
			_, err := redist.MinimizeCostRedistribution(old, newW, redist.OverlapMessagesCost(2))
			return err
		},
		"iterated": func() error {
			_, err := redist.Iterated(old, newW, redist.OverlapCost)
			return err
		},
		"bruteforce": func() error {
			_, err := redist.BruteForce(old, newW, redist.OverlapCost)
			return err
		},
	}
	for name, f := range cases {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := f(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDedup compares the purpose-built open-addressing
// hash set with Go's built-in map for the inspector's duplicate
// removal.
func BenchmarkAblationDedup(b *testing.B) {
	g, err := mesh.Honeycomb(100, 180)
	if err != nil {
		b.Fatal(err)
	}
	refs := make([]int64, 0, len(g.Adj))
	for _, w := range g.Adj {
		refs = append(refs, int64(w))
	}
	b.Run("hashset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sched.DedupHash(refs)
		}
	})
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sched.DedupMap(refs)
		}
	})
}

// BenchmarkAblationMulticast compares broadcasting through hardware
// multicast with per-destination unicast on the modeled Ethernet
// (paper Section 3.6).
func BenchmarkAblationMulticast(b *testing.B) {
	payload := make([]byte, 1024)
	for _, multicast := range []bool{true, false} {
		name := "unicast"
		if multicast {
			name = "multicast"
		}
		b.Run(name, func(b *testing.B) {
			model := &comm.Model{Latency: 50_000, Bandwidth: 25e6, Multicast: multicast} // 50us, 25 MB/s
			world, err := comm.Open("inproc", 5, comm.TransportOptions{Model: model})
			if err != nil {
				b.Fatal(err)
			}
			defer world.Close()
			dsts := []int{1, 2, 3, 4}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := world.Comm(0).Multicast(dsts, 1, payload); err != nil {
					b.Fatal(err)
				}
				for _, d := range dsts {
					if _, err := world.Comm(d).Recv(0, 1); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkCoalescing measures the message-coalescing optimization of
// paper Section 2 on a latency-dominated network: three vectors
// exchanged in one coalesced round, in three separate rounds, and in
// three split-phase Exchanges all in flight before the first Wait —
// which shows whether pipelining the rounds can stand in for
// coalescing them on a shared medium.
func BenchmarkCoalescing(b *testing.B) {
	g, err := mesh.Honeycomb(40, 60)
	if err != nil {
		b.Fatal(err)
	}
	arms := []struct {
		name string
		run  func(rt *core.Runtime, vs []*core.Vector) error
	}{
		{"coalesced", func(rt *core.Runtime, vs []*core.Vector) error {
			return rt.ExchangeAll(vs...)
		}},
		{"separate", func(rt *core.Runtime, vs []*core.Vector) error {
			for _, v := range vs {
				if err := rt.Exchange(v); err != nil {
					return err
				}
			}
			return nil
		}},
		{"pipelined", func(rt *core.Runtime, vs []*core.Vector) error {
			var hs [3]*core.OpHandle
			for i, v := range vs {
				h, err := rt.ExchangeStart(v)
				if err != nil {
					return err
				}
				hs[i] = h
			}
			for _, h := range hs {
				if err := h.Wait(); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			model := &comm.Model{Latency: 200_000, Bandwidth: 25e6} // 0.2ms per message
			world, err := comm.Open("inproc", 2, comm.TransportOptions{Model: model})
			if err != nil {
				b.Fatal(err)
			}
			defer world.Close()
			b.ResetTimer()
			err = world.SPMD(nil, func(c *comm.Comm) error {
				rt, err := core.New(c, g, core.Config{Order: order.RCB})
				if err != nil {
					return err
				}
				vs := []*core.Vector{rt.NewVector(), rt.NewVector(), rt.NewVector()}
				for i := 0; i < b.N; i++ {
					if err := arm.run(rt, vs); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkTranslation compares the interval translation table (O(p)
// memory, binary search) with the fully replicated table (O(n) memory,
// direct index) — the trade-off of paper Section 3.2, Figure 3.
func BenchmarkTranslation(b *testing.B) {
	layout, err := partition.NewBlock(1<<20, []float64{1, 2, 3, 4, 5})
	if err != nil {
		b.Fatal(err)
	}
	interval := translate.NewIntervalTable(layout)
	replicated := translate.NewReplicatedTable(layout)
	tables := map[string]translate.Table{"interval": interval, "replicated": replicated}
	for name, tab := range tables {
		b.Run(name, func(b *testing.B) {
			n := layout.N()
			for i := 0; i < b.N; i++ {
				if _, err := tab.Lookup(int64(i) % n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
