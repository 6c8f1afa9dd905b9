package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"stance/internal/ckpt"
	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/graph"
	"stance/internal/loadbal"
	"stance/internal/order"
	"stance/internal/partition"
	"stance/internal/redist"
	"stance/internal/sched"
	"stance/internal/solver"
	"stance/internal/vtime"
)

// Tags for the ladder's own messages, clear of the runtime's, the
// balancer's and the checkpoint protocol's.
const (
	tagPing = 0x7b01 + iota
	tagFanIn
	tagColl
)

// ladder drives the layers by hand below the session — comm.Open,
// core.New, solver.New, then each rung alone on that world — always on
// the real clock and a free network, so every rung reads the runtime's
// own cost. The rungs share the workload's mesh, rank count, transport
// and executor mode; adjacent rungs subtract to a layer's own cost.
type ladder struct {
	w     workload
	tg    *graph.Graph // the RCB-transformed mesh
	rec   *recorder
	root  int
	m     metrics
	ctx   context.Context
	world *comm.World
	rts   []*core.Runtime
	sols  []*solver.Solver
	// scratch is a second vector per rank that the executor rungs move,
	// so the solver's own field keeps its values.
	scratch []*core.Vector
	// msgBytes is the median ghost message of the schedule.
	msgBytes int
}

// cost is what one SPMD section took.
type cost struct {
	wall, cpu time.Duration
	mallocs   uint64
}

// section runs f on every rank and measures the whole section from
// outside. Heap allocations are the process's: the ranks are the only
// goroutines running.
func (l *ladder) section(name string, f func(c *comm.Comm) error) (cost, error) {
	return l.sectionOn(l.world, name, f)
}

func (l *ladder) sectionOn(world *comm.World, name string, f func(c *comm.Comm) error) (cost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := readUsage().cpu
	id := l.rec.begin(name, l.root, -1, -1)
	t0 := time.Now()
	err := world.SPMD(l.ctx, func(c *comm.Comm) error {
		rid := l.rec.begin(name+".rank", id, c.Rank(), -1)
		defer l.rec.end(rid)
		return f(c)
	})
	wall := time.Since(t0)
	l.rec.end(id)
	cpu := readUsage().cpu - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return cost{}, fmt.Errorf("%s: %w", name, err)
	}
	return cost{wall: wall, cpu: cpu, mallocs: m1.Mallocs - m0.Mallocs}, nil
}

// timed runs f once outside any SPMD section under a span.
func (l *ladder) timed(name string, f func() error) (time.Duration, error) {
	id := l.rec.begin(name, l.root, -1, -1)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	l.rec.end(id)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// runLadder measures the set-up ladder and the iteration ladder for a
// workload and stores the rungs in m.
func runLadder(ctx context.Context, w workload, tg *graph.Graph, g *graph.Graph, rec *recorder, m metrics) error {
	l := &ladder{w: w, tg: tg, rec: rec, m: m, ctx: ctx}
	l.root = rec.begin("ladder", -1, -1, -1)
	defer rec.end(l.root)
	if err := l.setup(g); err != nil {
		return err
	}
	defer l.world.Close()
	// Order matters on the runtime's world. A mailbox keeps one queue
	// per (source, tag) it has ever seen and RecvAny scans them all, so
	// the rungs that leave many behind — split-phase ops rotate through
	// 64 tags — come last, and the comm-level rungs get a world of
	// their own.
	rungs := []func() error{l.commRungs, l.codec, l.executorSync, l.kernel}
	if w.Adaptive {
		rungs = append(rungs, l.balancer, l.remap, l.checkpoint, l.simClock)
	}
	for _, rung := range append(rungs, l.step, l.executorSplit) {
		if err := rung(); err != nil {
			return err
		}
	}
	return nil
}

// setup is the set-up ladder: what NewSession does, one call at a time.
func (l *ladder) setup(g *graph.Graph) error {
	w, p := l.w, l.w.P
	d, err := l.timed("comm.open", func() (err error) {
		l.world, err = comm.Open(w.Transport, p, comm.TransportOptions{})
		return err
	})
	if err != nil {
		return err
	}
	l.m["comm.open_ms"] = ms(d)

	l.rts = make([]*core.Runtime, p)
	c, err := l.section("core.new", func(c *comm.Comm) (err error) {
		l.rts[c.Rank()], err = core.New(c, g, core.Config{Order: order.RCB})
		return err
	})
	if err != nil {
		l.world.Close()
		return err
	}
	l.m["core.new_ms"], l.m["core.new_cpu_ms"] = ms(c.wall), ms(c.cpu)

	// The inspector alone, rank by rank: the slowest rank is the
	// critical path of a parallel set-up, the sum is the work.
	layout := l.rts[0].Layout()
	var buildMax, buildSum, compileSum time.Duration
	ghosts, peersMax := 0, 0
	var sizes []int
	for r := 0; r < p; r++ {
		refs := rankRefs(l.tg, layout.Interval(r))
		var s *sched.Schedule
		d, err := l.timed("sched.build", func() (err error) {
			s, err = sched.BuildSort2(layout, r, refs)
			return err
		})
		if err != nil {
			return err
		}
		buildSum += d
		buildMax = max(buildMax, d)
		xadj, adj := l.rts[r].LocalAdj()
		d, err = l.timed("sched.compile", func() error {
			return sched.Compile(s).Classify(xadj, adj)
		})
		if err != nil {
			return err
		}
		compileSum += d
		ghosts += s.NGhosts()
		peersMax = max(peersMax, s.Peers())
		plan := l.rts[r].Plan()
		for _, q := range plan.SendPeers() {
			sizes = append(sizes, 8*len(plan.LocalIdx(q)))
		}
	}
	l.m["sched.build_ms_max"], l.m["sched.build_ms_sum"] = ms(buildMax), ms(buildSum)
	l.m["sched.compile_ms_sum"] = ms(compileSum)
	l.m["sched.ghosts"], l.m["sched.peers_max"] = float64(ghosts), float64(peersMax)
	l.msgBytes = 8
	if len(sizes) > 0 {
		f := make([]float64, len(sizes))
		for i, s := range sizes {
			f[i] = float64(s)
		}
		l.msgBytes = int(median(f))
	}

	l.sols = make([]*solver.Solver, p)
	l.scratch = make([]*core.Vector, p)
	c, err = l.section("solver.new", func(c *comm.Comm) error {
		sol, err := solver.New(l.rts[c.Rank()], nil, w.WorkRep)
		if err != nil {
			return err
		}
		if w.Fields > 1 {
			if err := sol.SetFields(w.Fields); err != nil {
				return err
			}
		}
		if w.Adaptive {
			err = sol.SetOverlap(true)
		} else if w.Pipeline > 0 {
			err = sol.SetPipeline(w.Pipeline)
		}
		l.sols[c.Rank()] = sol
		return err
	})
	if err != nil {
		return err
	}
	l.m["solver.new_ms"] = ms(c.wall)
	_, err = l.section("scratch", func(c *comm.Comm) error {
		v := l.rts[c.Rank()].NewVector()
		for i := range v.Data {
			v.Data[i] = 1
		}
		l.scratch[c.Rank()] = v
		return nil
	})
	return err
}

// rankRefs extracts one rank's access pattern from the transformed
// graph, the way the runtime's inspector sees it.
func rankRefs(tg *graph.Graph, iv partition.Interval) sched.Refs {
	r := sched.Refs{Xadj: make([]int32, 1, iv.Len()+1)}
	for g := iv.Lo; g < iv.Hi; g++ {
		for _, w := range tg.Neighbors(int(g)) {
			r.Adj = append(r.Adj, int64(w))
		}
		r.Xadj = append(r.Xadj, int32(len(r.Adj)))
	}
	return r
}

// codec: pack and unpack one real ghost message's values.
func (l *ladder) codec() error {
	plan := l.rts[0].Plan()
	peers := plan.SendPeers()
	if len(peers) == 0 {
		return nil
	}
	idx := plan.LocalIdx(peers[0])
	vals := l.scratch[0].Data
	buf := make([]byte, 8*len(idx))
	const passes = 2000
	d, err := l.timed("comm.pack", func() error {
		for i := 0; i < passes; i++ {
			comm.PackF64s(buf, vals, idx)
			if err := comm.UnpackF64s(vals, idx, buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["comm.pack_ns_per_f64"] = float64(d) / float64(passes*len(idx))
	return nil
}

// commRungs measures the message layer alone, on a fresh world of the
// workload's transport and size: a two-rank ping-pong and a p-1 into 1
// fan-in, both with the schedule's median ghost message, then the three
// collectives the session and the balancer use.
func (l *ladder) commRungs() error {
	world, err := comm.Open(l.w.Transport, l.w.P, comm.TransportOptions{})
	if err != nil {
		return err
	}
	defer world.Close()
	if err := l.mailbox(world); err != nil {
		return err
	}
	return l.collectives(world)
}

func (l *ladder) mailbox(world *comm.World) error {
	const trips = 2000
	msg := make([]byte, l.msgBytes)
	c, err := l.sectionOn(world, "comm.pingpong", func(c *comm.Comm) error {
		if c.Rank() > 1 {
			return nil
		}
		peer := 1 - c.Rank()
		for i := 0; i < trips; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, tagPing, msg); err != nil {
					return err
				}
			}
			buf, err := c.Recv(peer, tagPing)
			if err != nil {
				return err
			}
			c.Release(buf)
			if c.Rank() == 1 {
				if err := c.Send(peer, tagPing, msg); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["comm.pingpong_us"] = us(c.wall) / (2 * trips)
	l.m["comm.pingpong_allocs"] = float64(c.mallocs) / (2 * trips)

	perSender := max(20, 4000/(l.w.P-1))
	total := perSender * (l.w.P - 1)
	c, err = l.sectionOn(world, "comm.fanin", func(c *comm.Comm) error {
		if c.Rank() != 0 {
			for i := 0; i < perSender; i++ {
				if err := c.Send(0, tagFanIn, msg); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < total; i++ {
			_, buf, err := c.RecvAny(tagFanIn)
			if err != nil {
				return err
			}
			c.Release(buf)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["comm.fanin_us_per_msg"] = us(c.wall) / float64(total)
	return nil
}

func (l *ladder) collectives(world *comm.World) error {
	ops := max(50, 6400/l.w.P)
	for _, rung := range []struct {
		name string
		op   func(c *comm.Comm) error
	}{
		{"comm.barrier", func(c *comm.Comm) error { return c.Barrier(tagColl) }},
		{"comm.allgather", func(c *comm.Comm) error {
			_, err := c.AllGather(tagColl, make([]byte, 24))
			return err
		}},
		{"comm.allreduce", func(c *comm.Comm) error {
			_, err := c.AllReduceF64(tagColl, []float64{1}, func(a, b float64) float64 { return a + b })
			return err
		}},
	} {
		c, err := l.sectionOn(world, rung.name, func(c *comm.Comm) error {
			for i := 0; i < ops; i++ {
				if err := rung.op(c); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		l.m[rung.name+"_us"] = us(c.wall) / float64(ops)
	}
	return nil
}

// execLoop replays one executor operation on every rank's scratch
// vector.
func (l *ladder) execLoop(name string, op func(rt *core.Runtime, v *core.Vector) error) (cost, int, error) {
	ops := max(50, 12800/l.w.P)
	c, err := l.section(name, func(c *comm.Comm) error {
		rt, v := l.rts[c.Rank()], l.scratch[c.Rank()]
		for i := 0; i < ops; i++ {
			if err := op(rt, v); err != nil {
				return err
			}
		}
		return nil
	})
	return c, ops, err
}

// executorSync: the schedule replayed by the two blocking entry points.
func (l *ladder) executorSync() error {
	c, ops, err := l.execLoop("core.exchange", func(rt *core.Runtime, v *core.Vector) error { return rt.Exchange(v) })
	if err != nil {
		return err
	}
	l.m["core.exchange_us"] = us(c.wall) / float64(ops)
	l.m["core.exchange_cpu_us"] = us(c.cpu) / float64(ops)
	l.m["core.exchange_allocs"] = float64(c.mallocs) / float64(ops)

	// ScatterAdd sums ghosts into their owners, so the scratch values
	// grow with every op; few enough ops keep them finite.
	c, ops, err = l.execLoop("core.scatteradd", func(rt *core.Runtime, v *core.Vector) error { return rt.ScatterAdd(v) })
	if err != nil {
		return err
	}
	l.m["core.scatteradd_us"] = us(c.wall) / float64(ops)
	return nil
}

// executorSplit: the same exchange through an op handle.
func (l *ladder) executorSplit() error {
	c, ops, err := l.execLoop("core.exchange_split", func(rt *core.Runtime, v *core.Vector) error {
		h, err := rt.ExchangeStart(v)
		if err != nil {
			return err
		}
		return h.Wait()
	})
	if err != nil {
		return err
	}
	l.m["core.exchange_split_us"] = us(c.wall) / float64(ops)
	return nil
}

// kernel: the compute body alone on each rank's localized CSR, one rank
// at a time so the figure is a core's, not a contended machine's.
func (l *ladder) kernel() error {
	const passes = 5
	var worst time.Duration
	var worstEdges int
	for r, rt := range l.rts {
		xadj, adj := rt.LocalAdj()
		data := l.sols[r].Y().Data
		tv := make([]float64, rt.LocalN())
		best := time.Duration(0)
		for i := 0; i < passes; i++ {
			d, _ := l.timed("solver.kernel", func() error {
				solver.Figure8{}.Sweep(data, xadj, adj, tv, 0, rt.LocalN())
				return nil
			})
			if best == 0 || d < best {
				best = d
			}
		}
		if best > worst {
			worst, worstEdges = best, len(adj)
		}
	}
	l.m["solver.kernel_us"] = us(worst)
	if worstEdges > 0 {
		l.m["solver.kernel_ns_per_edge"] = float64(worst) / float64(worstEdges)
	}
	l.m["solver.sweeps_per_iter"] = float64(l.w.WorkRep + 1)
	return nil
}

// step: the solver loop driven by hand, without the session around it.
func (l *ladder) step() error {
	iters := 200
	if l.w.WorkRep > 1 {
		iters = 40
	}
	c, err := l.section("solver.step", func(c *comm.Comm) error {
		return l.sols[c.Rank()].Run(iters, nil)
	})
	if err != nil {
		return err
	}
	step := us(c.wall) / float64(iters)
	fields := float64(max(1, l.w.Fields))
	l.m["solver.step_us"] = step
	l.m["solver.self_us"] = step - fields*(l.m["core.exchange_us"]+l.m["solver.kernel_us"]*l.m["solver.sweeps_per_iter"])
	return nil
}

// balancer: one check on reports that agree, so nothing remaps.
func (l *ladder) balancer() error {
	ops := max(20, 3200/l.w.P)
	bals := make([]*loadbal.Balancer, l.w.P)
	if _, err := l.section("loadbal.new", func(c *comm.Comm) (err error) {
		bals[c.Rank()], err = loadbal.New(l.rts[c.Rank()], loadbal.Config{Horizon: checkEvery})
		return err
	}); err != nil {
		return err
	}
	c, err := l.section("loadbal.check", func(c *comm.Comm) error {
		rep := loadbal.Report{RatePerItem: 1e-6, Items: int64(l.rts[c.Rank()].LocalN() * checkEvery)}
		for i := 0; i < ops; i++ {
			d, err := bals[c.Rank()].Check(rep)
			if err != nil {
				return err
			}
			if d.Remapped {
				return fmt.Errorf("balanced reports remapped")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["loadbal.check_us"] = us(c.wall) / float64(ops)
	return nil
}

// remap: the arrangement search and the transfer plan alone, then a
// whole Runtime.Remap to 2:1 weights and back.
func (l *ladder) remap() error {
	p := l.w.P
	uniform, skewed := make([]float64, p), make([]float64, p)
	for i := range uniform {
		uniform[i], skewed[i] = 1, 1+float64(i%2)
	}
	old := l.rts[0].Layout()
	var cand *partition.Layout
	const searches = 20
	d, err := l.timed("redist.mcr", func() (err error) {
		for i := 0; i < searches; i++ {
			if cand, err = redist.MinimizeCostRedistribution(old, skewed, redist.OverlapCost); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["redist.mcr_us"] = us(d) / searches
	d, err = l.timed("redist.plan", func() error {
		for r := 0; r < p; r++ {
			if _, err := redist.NewPlan(old, cand, r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["redist.plan_us"] = us(d)

	const rounds = 2
	var moved int64
	var inspector time.Duration
	var mu sync.Mutex
	c, err := l.section("core.remap", func(c *comm.Comm) error {
		rt := l.rts[c.Rank()]
		for i := 0; i < rounds; i++ {
			for _, weights := range [][]float64{skewed, uniform} {
				st, err := rt.Remap(weights)
				if err != nil {
					return err
				}
				mu.Lock()
				if c.Rank() == 0 && i == 0 && st.Moved > 0 {
					moved = st.Moved * 8 * int64(rt.NumVectors())
				}
				inspector = max(inspector, rt.LastInspectorTime())
				mu.Unlock()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["core.remap_ms"] = ms(c.wall) / (2 * rounds)
	l.m["core.remap_moved_bytes"] = float64(moved)
	l.m["core.inspector_ms"] = ms(inspector)
	return nil
}

// checkpoint: one buddy checkpoint of the solver's fields on all ranks.
func (l *ladder) checkpoint() error {
	p := l.w.P
	fields := max(1, l.w.Fields)
	active := make([]int, p)
	for i := range active {
		active[i] = i
	}
	layout := l.rts[0].Layout()
	bytes := 0
	for r := 0; r < p; r++ {
		bytes += ckpt.EncodedLen(fields, layout.Size(r))
	}
	l.m["ckpt.snapshot_bytes"] = float64(bytes)
	const takes = 20
	c, err := l.section("ckpt.take", func(c *comm.Comm) error {
		st := ckpt.NewStore(c, fields)
		data := make([][]float64, fields)
		for f := range data {
			data[f] = l.sols[c.Rank()].Field(f).Data
		}
		for i := 0; i < takes; i++ {
			if err := st.Take(i, layout, active, data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["ckpt.take_ms"] = ms(c.wall) / takes
	return nil
}

// simClock measures what the simulated clock itself costs: p workers
// sleeping in lock-step, so every sleep is one clock advance that needs
// all p parked first.
func (l *ladder) simClock() error {
	p := l.w.P
	advances := max(100, 8000/p)
	sim := vtime.NewSim()
	sim.Add(p)
	var wg sync.WaitGroup
	t0 := time.Now()
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sim.Done()
			for i := 0; i < advances; i++ {
				sim.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	l.m["vtime.event_us"] = us(time.Since(t0)) / float64(advances)
	return nil
}
