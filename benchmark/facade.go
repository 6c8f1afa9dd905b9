package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"stance"
	"stance/internal/graph"
)

// Chunk classes on the adaptive workload, read from the chunk's own
// RunReport.
const (
	classPlain = iota
	classRemap
	classMember
	classRecovery
	numClasses
)

// episode is one fixed job — through the facade (NewSession, a warm-up
// chunk, the timed chunks, ResultByVertex, Close) or through stanced
// (service start, warm-up jobs, the timed jobs, Close). A run repeats
// it until its time is used up; every end-to-end metric is read from
// the episodes' stopwatches.
type episode struct {
	traced bool
	// setup is NewSession (service: jobsvc.New until the fresh service
	// has finished its first job); total is the whole job, set-up to
	// Close.
	setup, total time.Duration
	// opMs holds one value per timed operation, its latency (chunk wall,
	// or job submit-to-terminal); iterMs is that latency divided by the
	// operation's solver iterations.
	iterMs, opMs []float64
	class        []int
	// timedWall, cpu and iters cover the timed operations only. cpuMs
	// splits cpu at the quarter marks of the timed chunks (facade only):
	// long enough stretches for the kernel's tick-based accounting, short
	// enough that some repeat of each runs undisturbed.
	timedWall, cpu time.Duration
	cpuMs          []float64
	iters          int
	attempted      int
	failed         int
	err            error

	// rep accumulates the timed chunks' RunReports (facade only).
	rep               stance.RunReport
	resultT, closeT   time.Duration
	mallocs, allocB   uint64
	gcPause           time.Duration
	svc               *serviceCounters
	computeMs, commMs float64 // max over ranks, per iteration
}

func classify(rep *stance.RunReport) int {
	switch {
	case len(rep.Recoveries) > 0:
		return classRecovery
	case len(rep.Members) > 0:
		return classMember
	case len(rep.Remaps()) > 0:
		return classRemap
	}
	return classPlain
}

// accumulate adds one chunk's report to the episode's running total.
func accumulate(total, rep *stance.RunReport) {
	total.Iters += rep.Iters
	total.Wall += rep.Wall
	if total.Ranks == nil {
		total.Ranks = make([]stance.RankUsage, len(rep.Ranks))
	}
	for i := range rep.Ranks {
		total.Ranks[i].Add(rep.Ranks[i])
	}
	total.Checks = append(total.Checks, rep.Checks...)
	total.Members = append(total.Members, rep.Members...)
	total.Recoveries = append(total.Recoveries, rep.Recoveries...)
	total.Msgs += rep.Msgs
	total.Bytes += rep.Bytes
	total.Exec.Add(rep.Exec)
	if rep.Transport != nil {
		if total.Transport == nil {
			total.Transport = &stance.TransportStats{}
		}
		total.Transport.Add(*rep.Transport)
	}
}

// runFacadeJob runs the workload's fixed job once. rec is nil on an
// untraced job; mem additionally reads the allocator's counters around
// the timed chunks (a stop-the-world read, so only the traced run asks
// for it).
func runFacadeJob(parent context.Context, w workload, g *graph.Graph, sc *scenario, ref *oracle, rec *recorder, mem bool) *episode {
	ep := &episode{traced: rec != nil, attempted: w.Chunks, failed: w.Chunks}
	ctx, cancel := context.WithTimeout(parent, w.Deadline)
	defer cancel()

	root := rec.begin("job", -1, -1, -1)
	defer rec.end(root)
	t0 := time.Now()
	id := rec.begin("session.new", root, -1, -1)
	s, err := stance.NewSession(ctx, g, w.P, w.sessionOptions(sc)...)
	rec.end(id)
	ep.setup = time.Since(t0)
	if err != nil {
		ep.err = fmt.Errorf("NewSession: %w", err)
		return ep
	}
	defer func() {
		tc := time.Now()
		id := rec.begin("session.close", root, -1, -1)
		if err := s.Close(); err != nil && ep.err == nil {
			ep.err = fmt.Errorf("Close: %w", err)
		}
		rec.end(id)
		ep.closeT = time.Since(tc)
		ep.total = time.Since(t0)
	}()

	// One untimed chunk lets lazily built state (buffers, handle pools,
	// tcp connections' first frames) settle.
	if _, err := s.Run(checkEvery); err != nil {
		ep.err = fmt.Errorf("warm-up Run: %w", err)
		return ep
	}
	var m0, m1 runtime.MemStats
	if mem {
		runtime.ReadMemStats(&m0)
	}
	cpu0 := readUsage().cpu
	cpuMark := cpu0
	ok := 0
	for i := 0; i < w.Chunks; i++ {
		id := rec.begin("session.run", root, -1, s.Iter())
		tc := time.Now()
		rep, err := s.Run(checkEvery)
		wall := time.Since(tc)
		rec.end(id)
		if err != nil {
			ep.err = fmt.Errorf("Run chunk %d: %w", i, err)
			break
		}
		ok++
		ep.opMs = append(ep.opMs, ms(wall))
		ep.iterMs = append(ep.iterMs, ms(wall)/checkEvery)
		ep.class = append(ep.class, classify(rep))
		ep.timedWall += wall
		accumulate(&ep.rep, rep)
		if (i+1)*4/w.Chunks != i*4/w.Chunks {
			now := readUsage().cpu
			ep.cpuMs = append(ep.cpuMs, ms(now-cpuMark))
			cpuMark = now
		}
	}
	ep.cpu = cpuMark - cpu0
	ep.iters = ok * checkEvery
	if mem {
		runtime.ReadMemStats(&m1)
		ep.mallocs, ep.allocB = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		ep.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	}
	if ep.err != nil {
		ep.failed = w.Chunks - ok
		return ep
	}
	for _, u := range ep.rep.Ranks {
		ep.computeMs = max(ep.computeMs, ms(u.Compute)/float64(ep.iters))
		ep.commMs = max(ep.commMs, ms(u.Comm)/float64(ep.iters))
	}

	tr := time.Now()
	id = rec.begin("session.result", root, -1, -1)
	got, err := s.ResultByVertex()
	rec.end(id)
	ep.resultT = time.Since(tr)
	if err != nil {
		ep.err = fmt.Errorf("ResultByVertex: %w", err)
		return ep
	}
	// A wrong result fails every operation of the job: none of them can
	// be trusted.
	if err := ref.check(got); err != nil {
		ep.err = fmt.Errorf("result differs from the sequential reference: %w", err)
		return ep
	}
	ep.failed = 0
	return ep
}
