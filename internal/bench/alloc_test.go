package bench

// The allocation-regression gate: the executor's steady-state replay
// path — synchronous and split-phase — must allocate nothing once the
// plan's wire buffers and the transport's receive pools are warm.
// Benchmarks only report allocs/op without failing on them; this test
// counts runtime.MemStats.Mallocs over a fixed window of warm runs so a
// regression fails CI instead of rotting silently, down to a single
// malloc in the window.
//
// The count is process-wide, with GOMAXPROCS pinned to 1 as
// testing.AllocsPerRun pins it, so the SPMD section cannot be spawned
// inside the measured function (goroutine startup allocates). Instead the ranks
// run as persistent workers driven over pre-allocated channels: the
// measured function triggers one collective operation and waits for
// every rank to finish, which in the steady state costs zero
// allocations end to end.
//
// The workers live inside one World.SPMD section under a cancellable
// context, because that is how every session runs: a receive that
// blocks there takes the mailbox's cancellation path, which a world
// driven under no context never enters. The cases cover the shapes the
// benchmark runs — p=64 on the 150×150 grid is scale-p64's — and one
// sub-world, whose receives reach the mailbox through the mask
// translation of Comm.Sub.
//
// Deliberately NOT -short-gated: the gate must run in CI. It skips
// only under the race detector, whose instrumentation perturbs
// allocation counts; CI runs it in a dedicated no-race step.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/graph"
	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/solver"
)

// allocOp is one rank's share of a collective executor operation.
type allocOp func(rt *core.Runtime, vs []*core.Vector) error

// allocHarness drives a warm world through executor operations with
// persistent per-rank workers, one per member of the executor's world.
type allocHarness struct {
	reqs []chan allocOp
	done []chan error
	// solvers holds each member's two-field solver by world rank, for
	// the ops that replay whole solver iterations.
	solvers []*solver.Solver
}

// newAllocHarness opens a p-rank world and parks one worker per rank
// inside a World.SPMD section. With sub non-nil the executor runs on the
// sub-world of those ranks, and the others sit the section out.
func newAllocHarness(t *testing.T, g *graph.Graph, p int, sub []int, nvecs int) *allocHarness {
	t.Helper()
	world, err := comm.Open("inproc", p, comm.TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	members := sub
	if members == nil {
		for r := 0; r < p; r++ {
			members = append(members, r)
		}
	}
	h := &allocHarness{reqs: make([]chan allocOp, p), done: make([]chan error, p), solvers: make([]*solver.Solver, p)}
	for _, r := range members {
		h.reqs[r] = make(chan allocOp)
		h.done[r] = make(chan error, 1)
	}
	ready := make(chan error, p)
	ctx, cancel := context.WithCancel(context.Background())
	section := make(chan error, 1)
	go func() {
		section <- world.SPMD(ctx, func(c *comm.Comm) error {
			req, done := h.reqs[c.Rank()], h.done[c.Rank()]
			if req == nil {
				ready <- nil
				return nil
			}
			if sub != nil {
				sc, err := c.Sub(sub)
				if err != nil {
					ready <- err
					return nil
				}
				c = sc
			}
			rt, err := core.New(c, g, core.Config{Order: order.RCB})
			if err != nil {
				ready <- err
				return nil
			}
			vs := make([]*core.Vector, nvecs)
			for j := range vs {
				vs[j] = rt.NewVector()
				off := float64(j)
				vs[j].SetByGlobal(func(gid int64) float64 { return float64(gid%89) + off })
			}
			s, err := solver.New(rt, nil, 1)
			if err == nil {
				err = s.SetFields(2)
			}
			if err != nil {
				ready <- err
				return nil
			}
			h.solvers[c.WorldRank()] = s
			ready <- nil
			for op := range req {
				done <- op(rt, vs)
			}
			return nil
		})
	}()
	t.Cleanup(func() {
		for _, req := range h.reqs {
			if req != nil {
				close(req)
			}
		}
		if err := <-section; err != nil {
			t.Error(err)
		}
		cancel()
		world.Close()
	})
	for i := 0; i < p; i++ {
		if err := <-ready; err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// run triggers op collectively and waits for every rank.
func (h *allocHarness) run(t *testing.T, op allocOp) {
	for _, req := range h.reqs {
		if req != nil {
			req <- op
		}
	}
	for _, done := range h.done {
		if done == nil {
			continue
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// allocWarm and allocWindow are the runs TestExecutorZeroAlloc makes of
// a row before counting, and the runs it counts over. allocBound is
// every row's bound on the mallocs of one window: each row read 0 in
// each of 20 runs of the test on a 2-core box with two busy loops
// beside it.
const (
	allocWarm   = 100
	allocWindow = 200
	allocBound  = 0
)

// mallocsOver counts the process's mallocs across allocWindow runs of f
// that follow allocWarm uncounted ones, with GOMAXPROCS pinned to 1 as
// testing.AllocsPerRun pins it. The count is exact: a row that
// allocates once in the window reads 1, where AllocsPerRun's floored
// average reads 0 until a row allocates on every run.
func mallocsOver(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < allocWarm; i++ {
		f()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocWindow; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestExecutorZeroAlloc holds every executor replay operation,
// synchronous and split-phase, and whole solver iterations at every
// executor depth, to allocBound mallocs in an allocWindow-run window.
func TestExecutorZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector; CI runs this in a no-race step")
	}
	ops := []struct {
		name string
		op   allocOp
	}{
		{"Exchange", func(rt *core.Runtime, vs []*core.Vector) error {
			return rt.Exchange(vs[0])
		}},
		{"ScatterAdd", func(rt *core.Runtime, vs []*core.Vector) error {
			return rt.ScatterAdd(vs[0])
		}},
		{"ExchangeAll", func(rt *core.Runtime, vs []*core.Vector) error {
			return rt.ExchangeAll(vs...)
		}},
		{"ScatterAddAll", func(rt *core.Runtime, vs []*core.Vector) error {
			return rt.ScatterAddAll(vs...)
		}},
		{"ExchangeStartWait", func(rt *core.Runtime, vs []*core.Vector) error {
			h, err := rt.ExchangeStart(vs[0])
			if err != nil {
				return err
			}
			return h.Wait()
		}},
		// Multi-handle pipelining: two independent exchanges in flight
		// at once, drained out of start order. Handles come from the
		// pool and the rotating-tag mailbox slots are warm.
		{"TwoExchangesPipelined", func(rt *core.Runtime, vs []*core.Vector) error {
			h0, err := rt.ExchangeStart(vs[0])
			if err != nil {
				return err
			}
			h1, err := rt.ExchangeStart(vs[1])
			if err != nil {
				return err
			}
			if err := h1.Wait(); err != nil {
				return err
			}
			return h0.Wait()
		}},
	}
	honeycomb, err := mesh.Honeycomb(30, 40)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := mesh.GridTriangulated(150, 150, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		p    int
		sub  []int
	}{
		{"p=2", honeycomb, 2, nil},
		{"p=4", honeycomb, 4, nil},
		{"p=64", grid, 64, nil},
		{"sub 4 of p=5", honeycomb, 5, []int{4, 0, 3, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newAllocHarness(t, tc.g, tc.p, tc.sub, 3)
			// Warm every path first: wire buffers grow to the coalesced
			// size, receive pools fill, handle pools and scratch are
			// retained.
			for _, op := range ops {
				for i := 0; i < 4; i++ {
					h.run(t, op.op)
				}
			}
			// Start handles rotate through the 64-tag wire window and the
			// mailbox builds a tag's table on its first message, so spin
			// the full window once before measuring.
			h.run(t, func(rt *core.Runtime, vs []*core.Vector) error {
				for i := 0; i < 64; i++ {
					hd, err := rt.ExchangeStart(vs[0])
					if err != nil {
						return err
					}
					if err := hd.Wait(); err != nil {
						return err
					}
				}
				return nil
			})
			for _, op := range ops {
				if n := mallocsOver(func() { h.run(t, op.op) }); n > allocBound {
					t.Errorf("%s: %d mallocs in %d steady-state runs, want at most %d", op.name, n, allocWindow, allocBound)
				}
			}
			// Whole solver iterations at every executor depth: the sweep's
			// pass closure, the two-list depth-0 sweep and the depth-2
			// re-post must not allocate either.
			for depth := 0; depth <= 2; depth++ {
				iterate := func(rt *core.Runtime, _ []*core.Vector) error {
					s := h.solvers[rt.Comm().WorldRank()]
					if err := s.SetPipeline(depth); err != nil {
						return err
					}
					return s.Run(2, nil)
				}
				if n := mallocsOver(func() { h.run(t, iterate) }); n > allocBound {
					t.Errorf("solver.Run at depth %d: %d mallocs in %d steady-state runs, want at most %d", depth, n, allocWindow, allocBound)
				}
			}
		})
	}
}

// rebuildAllocs measures what one collective rebuild operation
// allocates in the steady state — bytes and objects per rank per call,
// process-wide over every rank of the harness — after warm round trips
// have brought the runtime's buffers to their high-water sizes.
func rebuildAllocs(t *testing.T, h *allocHarness, p int, op allocOp) (bytes, objects float64) {
	t.Helper()
	const warm, rounds = 2, 20
	for i := 0; i < warm; i++ {
		h.run(t, op)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		h.run(t, op)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / (rounds * float64(p)), float64(m1.Mallocs-m0.Mallocs) / (rounds * float64(p))
}

// TestRemapSteadyAlloc gates the inspector's storage reuse on
// BenchmarkRemap's mesh and world: once two round trips have warmed the
// runtime, a Remap between a skewed and a uniform capability vector
// allocates nothing that grows with the rank's rows or references — the
// localized CSR, the plan's row lists and tables and the vectors all
// live in storage kept from the previous rebuild. What is left is the
// arrangement search's candidate layouts and the schedule builder's
// hash sets and lists over the few hundred off-interval references:
// measured 12.2 kB and 148 objects per rank per remap, where copying
// the access pattern out and rebuilding everything cost 250 kB. The
// bounds leave a quarter of headroom: one int32 per row of this
// 1500-row rank is 6 kB and would trip them.
func TestRemapSteadyAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector; CI runs this in a no-race step")
	}
	g, err := mesh.Honeycomb(60, 100)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	h := newAllocHarness(t, g, p, nil, 1)
	skewed, uniform := []float64{2, 1, 1, 1}, []float64{1, 1, 1, 1}
	bytes, objects := rebuildAllocs(t, h, p, func(rt *core.Runtime, _ []*core.Vector) error {
		for _, w := range [][]float64{skewed, uniform} {
			st, err := rt.Remap(w)
			if err != nil {
				return err
			}
			if !st.Changed || st.Moved == 0 {
				return fmt.Errorf("remap moved nothing (Changed=%v)", st.Changed)
			}
		}
		return nil
	})
	bytes, objects = bytes/2, objects/2 // two remaps per round trip
	t.Logf("steady-state Remap at p=%d: %.0f bytes, %.0f objects per rank", p, bytes, objects)
	if bytes > 16<<10 || objects > 190 {
		t.Errorf("steady-state Remap allocates %.0f bytes in %.0f objects per rank, want at most 16384 in 190", bytes, objects)
	}
}

// TestRebindSteadyAlloc is the same gate for a membership round trip:
// the world shrinks onto three survivors and grows back, so one rank
// parks and is re-admitted — its inspector storage must survive the
// park — and the others rebuild under a different world size. Measured
// 15 kB and 103 objects per rank per round trip (two rebinds; 495 kB
// before), which includes both sub-world endpoints.
func TestRebindSteadyAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector; CI runs this in a no-race step")
	}
	g, err := mesh.Honeycomb(60, 100)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	h := newAllocHarness(t, g, p, nil, 1)
	full, wFull := []int{0, 1, 2, 3}, []float64{1, 1, 1, 1}
	survivors, wShrunk := full[:p-1], wFull[:p-1]
	bytes, objects := rebuildAllocs(t, h, p, func(rt *core.Runtime, _ []*core.Vector) error {
		c := rt.Comm().Root()
		fullLayout, err := rt.CutLayout(wFull)
		if err != nil {
			return err
		}
		shrunkLayout, err := rt.CutLayout(wShrunk)
		if err != nil {
			return err
		}
		if err := rebindTo(c, rt, fullLayout, full, shrunkLayout, survivors); err != nil {
			return err
		}
		return rebindTo(c, rt, shrunkLayout, survivors, fullLayout, full)
	})
	t.Logf("steady-state Rebind shrink+grow at p=%d: %.0f bytes, %.0f objects per rank", p, bytes, objects)
	if bytes > 24<<10 || objects > 140 {
		t.Errorf("steady-state Rebind round trip allocates %.0f bytes in %.0f objects per rank, want at most 24576 in 140", bytes, objects)
	}
}
