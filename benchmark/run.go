package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"stance/client"
	"stance/internal/graph"
)

// runResult is one run of one workload; line() turns it into what the
// pipeline reads.
type runResult struct {
	Workload  string
	Trace     bool
	Correct   bool
	Attempted int
	Failed    int
	Metrics   metrics
	// Error is the first failure, empty on a correct run.
	Error string

	spans   []span
	dropped int
}

// inputs are everything a run generates from its seed before any clock
// starts.
type inputs struct {
	g    *graph.Graph
	sc   *scenario
	jobs []client.Spec
	ref  *oracle
}

// prepare generates the workload's inputs and the sequential reference
// for its fixed job.
func prepare(w workload, seed int64) (*inputs, error) {
	g, err := w.buildMesh(seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{g: g}
	refIters := w.iters()
	switch {
	case w.Adaptive:
		in.sc = genScenario(seed, w.P, w.iters())
		if err := in.sc.checkKillPlacement(); err != nil {
			return nil, fmt.Errorf("generated scenario: %w", err)
		}
	case w.Service:
		in.jobs = genJobs(seed, w, w.WarmJobs+w.Jobs)
		refIters = w.JobIters
	}
	if in.ref, err = newOracle(g, refIters); err != nil {
		return nil, err
	}
	return in, nil
}

// episode runs the workload's fixed job once.
func (in *inputs) episode(ctx context.Context, w workload, rec *recorder, mem bool) *episode {
	if w.Service {
		return runServiceJobs(ctx, w, in.jobs, in.ref, rec)
	}
	return runFacadeJob(ctx, w, in.g, in.sc, in.ref, rec, mem)
}

// runWorkload measures one workload for about the given time. With
// trace off it repeats the fixed job and reports the end-to-end metrics
// from the jobs' stopwatches. With trace on it first climbs the
// hand-driven ladder, then repeats the job alternately with and without
// benchmark-side spans, and reports the per-layer metrics.
func runWorkload(ctx context.Context, w workload, seed int64, seconds float64, trace bool, log io.Writer) *runResult {
	res := &runResult{Workload: w.Name, Trace: trace, Metrics: metrics{}}
	fail := func(err error) *runResult {
		res.Error = err.Error()
		res.Attempted, res.Failed = max(res.Attempted, 1), max(res.Failed, 1)
		return res
	}
	tp := time.Now()
	in, err := prepare(w, seed)
	if err != nil {
		return fail(err)
	}
	prepared := time.Since(tp)
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()

	var rec *recorder
	if trace {
		rec = newRecorder(w.Name)
		// The ladder gets the deadline of one job: a hang on a rung is a
		// counted failure like any other.
		lctx, cancel := context.WithTimeout(ctx, w.Deadline)
		err := runLadder(lctx, w, in.ref.tg, in.g, rec, res.Metrics)
		cancel()
		if err != nil {
			return fail(fmt.Errorf("ladder: %w", err))
		}
		fmt.Fprintf(log, "%s: ladder climbed in %.2fs\n", w.Name, time.Since(start).Seconds())
	}

	var eps []*episode
	for i := 0; ; i++ {
		// The traced run alternates plain and traced jobs, starting and
		// ending the pair, so their difference is the tracing overhead.
		var r *recorder
		if trace && i%2 == 1 {
			r = rec
		}
		// Every job starts from a collected heap, so that what the last one
		// left behind neither times this one's collections nor adds to the
		// process's peak.
		runtime.GC()
		ep := in.episode(ctx, w, r, trace)
		eps = append(eps, ep)
		res.Attempted += ep.attempted
		res.Failed += ep.failed
		if ep.err != nil {
			res.Error = ep.err.Error()
			break
		}
		if time.Since(start) >= budget && (!trace || i%2 == 1) {
			break
		}
	}
	res.Correct = res.Failed == 0 && res.Error == ""
	if !res.Correct {
		if res.Failed == 0 {
			res.Failed = 1
		}
		return res
	}
	fmt.Fprintf(log, "%s: %d job(s) of fixed work in %.2fs (inputs and reference %.2fs)\n",
		w.Name, len(eps), time.Since(start).Seconds(), prepared.Seconds())

	for i, ep := range eps {
		fmt.Fprintf(log, "  job %d: set-up %.4fs, median %.4f ms/iter, whole job %.3fs\n", i, ep.setup.Seconds(), median(ep.iterMs), ep.total.Seconds())
	}
	if !trace {
		endToEndMetrics(w, eps, res.Metrics)
		return res
	}
	perLayerMetrics(w, in, eps, res.Metrics)
	res.Metrics["bench.reference_s"] = prepared.Seconds()
	res.spans, res.dropped = rec.snapshot(), rec.dropped
	return res
}

// pooled concatenates one per-operation series over episodes.
func pooled(eps []*episode, pick func(*episode) []float64) []float64 {
	var out []float64
	for _, ep := range eps {
		out = append(out, pick(ep)...)
	}
	return out
}

// bestPerOp lines the run's repeats of the fixed job up operation by
// operation and keeps, for each operation, the smallest value any
// repeat measured.
func bestPerOp(eps []*episode, pick func(*episode) []float64) []float64 {
	best := append([]float64(nil), pick(eps[0])...)
	for _, ep := range eps[1:] {
		for i, v := range pick(ep) {
			if i < len(best) && v < best[i] {
				best[i] = v
			}
		}
	}
	return best
}

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

// endToEndMetrics reads the five from the jobs' stopwatches. Every job
// of a run does the same work, and what disturbs a timing on a shared
// machine (a neighbour on the same cores, for seconds at a time) only
// ever adds to it, so each piece of the job counts at the best of the
// run's repeats. A stretch of seconds at two thirds speed then moves no
// metric, while a change to the program moves every repeat and so all
// of them.
//
// Through the facade the pieces are the set-up, each chunk's wall and
// each quarter's CPU time, and the metrics are the median and the sums
// over the pieces. The service's jobs overlap and come in no fixed
// order, so there the pieces are the set-up and the whole timed phase:
// its median latency, its wall and its CPU time, each from the repeat
// where it was best.
func endToEndMetrics(w workload, eps []*episode, m metrics) {
	best := func(pick func(*episode) float64) float64 { return slices.Min(pooledOne(eps, pick)) }
	m["setup_s"] = best(func(ep *episode) float64 { return ep.setup.Seconds() })
	m["iter_ms_p50"] = bestIterMs(w, eps)
	iters := float64(eps[0].iters)
	if w.Service {
		m["iters_per_s"] = iters / best(func(ep *episode) float64 { return ep.timedWall.Seconds() })
		m["cpu_ms_per_iter"] = best(func(ep *episode) float64 { return ms(ep.cpu) }) / iters
	} else {
		m["iters_per_s"] = 1000 * iters / sum(bestPerOp(eps, func(ep *episode) []float64 { return ep.opMs }))
		m["cpu_ms_per_iter"] = sum(bestPerOp(eps, func(ep *episode) []float64 { return ep.cpuMs })) / iters
	}
	m["peak_rss_mb"] = readUsage().maxRSSMB
	// The issue's end-to-end metrics that the pipeline's flat list cannot
	// carry (see README) are printed beside it from the same untraced run.
	if w.Service {
		jobMetrics(eps, m)
	}
	if w.Adaptive {
		m["session.virtual_wall_s"] = eps[0].rep.Wall.Seconds()
	}
}

// bestIterMs is iter_ms_p50 over a set of repeats: the median over the
// job's chunks, each at its best, or the service's median job latency
// per iteration in the repeat where it is lowest.
func bestIterMs(w workload, eps []*episode) float64 {
	if len(eps) == 0 {
		return 0
	}
	if w.Service {
		return slices.Min(pooledOne(eps, func(ep *episode) float64 { return median(ep.iterMs) }))
	}
	return median(bestPerOp(eps, func(ep *episode) []float64 { return ep.iterMs }))
}

// jobMetrics are the service load's latency and throughput in a job's
// own units.
func jobMetrics(eps []*episode, m metrics) {
	m["jobsvc.job_ms_p50"] = median(pooled(eps, func(ep *episode) []float64 { return ep.opMs }))
	m["jobsvc.jobs_per_s"] = median(pooledOne(eps, func(ep *episode) float64 { return float64(len(ep.opMs)) / ep.timedWall.Seconds() }))
}

// perLayerMetrics fills in everything the ladder did not: the numbers
// read from the jobs' public counters and stopwatches. Exact counters
// come from the first job — every job does the same work — and timings
// from all of them.
func perLayerMetrics(w workload, in *inputs, eps []*episode, m metrics) {
	var plain, traced []*episode
	for _, ep := range eps {
		if ep.traced {
			traced = append(traced, ep)
		} else {
			plain = append(plain, ep)
		}
	}
	if base := bestIterMs(w, plain); base > 0 {
		m["bench.trace_overhead_pct"] = 100 * (bestIterMs(w, traced) - base) / base
	}
	m["order.rcb_ms"], m["graph.permute_ms"] = ms(in.ref.orderTime), ms(in.ref.permuteTime)
	m["solver.seq_iter_ms"] = ms(in.ref.perIter)

	med := func(pick func(*episode) float64) float64 { return median(pooledOne(eps, pick)) }
	m["session.close_ms"] = med(func(ep *episode) float64 { return ms(ep.closeT) })
	run := 1000 * bestIterMs(w, traced)
	if w.Service {
		// Inside stanced the session's own time is the job report's Wall;
		// the client's stopwatch also holds submit, queue and polling.
		serviceMetrics(eps, m)
		run = 1000 * m["jobsvc.session_wall_ms_p50"] / float64(w.JobIters)
	}
	m["session.run_us_per_iter"] = run
	m["session.self_us_per_iter"] = run - m["solver.step_us"]
	if run > 0 {
		m["solver.speedup_vs_seq"] = 1000 * m["solver.seq_iter_ms"] / run
	}
	if w.Service {
		return
	}
	m["session.new_ms"] = med(func(ep *episode) float64 { return ms(ep.setup) })
	m["session.setup_self_ms"] = m["session.new_ms"] - m["comm.open_ms"] - m["core.new_ms"] - m["solver.new_ms"]
	m["session.result_ms"] = med(func(ep *episode) float64 { return ms(ep.resultT) })
	m["solver.compute_ms_per_iter"] = med(func(ep *episode) float64 { return ep.computeMs })
	m["solver.comm_ms_per_iter"] = med(func(ep *episode) float64 { return ep.commMs })

	chunks := pooled(eps, func(ep *episode) []float64 { return ep.opMs })
	pct := tailPercentile(len(chunks))
	m["session.chunk_ms_tail"] = quantile(chunks, pct/100)
	m["session.chunk_tail_pct"] = pct
	m["session.chunk_samples"] = float64(len(chunks))

	ep := eps[0]
	rep, n := &ep.rep, float64(ep.iters)
	m["comm.msgs_per_iter"], m["comm.bytes_per_iter"] = float64(rep.Msgs)/n, float64(rep.Bytes)/n
	m["core.exec_msgs_per_iter"], m["core.exec_bytes_per_iter"] = float64(rep.Exec.Msgs)/n, float64(rep.Exec.Bytes)/n
	m["core.idle_ms_per_iter"] = ms(rep.Exec.Idle) / n
	m["core.overlapped_ops"], m["core.pipelined_ops"] = float64(rep.Exec.Overlapped), float64(rep.Exec.Pipelined)
	m["session.allocs_per_iter"] = float64(ep.mallocs) / n
	m["session.alloc_bytes_per_iter"] = float64(ep.allocB) / n
	m["session.gc_pause_ms"] = ms(ep.gcPause)
	if w.P <= 2 {
		// With more ranks than cores the ranks' measured rates include
		// each other's time slices and the ratio means nothing.
		if eff, err := rep.Efficiency(in.g.N); err == nil {
			m["solver.efficiency"] = eff
		}
	}
	if t := rep.Transport; t != nil && t.NFlushes > 0 {
		m["comm.wire_flushes_per_iter"] = float64(t.NFlushes) / n
		m["comm.wire_bytes_per_iter"] = float64(t.NTxByte) / n
		m["comm.wire_msgs_per_flush"] = float64(t.NTx) / float64(t.NFlushes)
		m["comm.wire_backpressure"] = float64(t.NTxBackpressure)
	}

	m["session.checks"], m["session.remaps"] = float64(len(rep.Checks)), float64(len(rep.Remaps()))
	m["session.members"], m["session.recoveries"] = float64(len(rep.Members)), float64(len(rep.Recoveries))
	for _, ev := range rep.Members {
		m["elastic.migrated_bytes"] += float64(ev.MovedBytes)
	}
	for _, ev := range rep.Recoveries {
		m["ckpt.rollback_iters"] += float64(ev.RollbackDepth)
	}
	if !w.Adaptive {
		return
	}
	m["session.virtual_wall_s"] = rep.Wall.Seconds()
	m["vtime.virtual_per_real"] = rep.Wall.Seconds() / ep.timedWall.Seconds()
	var byClass [numClasses][]float64
	for _, ep := range eps {
		for i, c := range ep.class {
			byClass[c] = append(byClass[c], ep.opMs[i])
		}
	}
	base := median(byClass[classPlain])
	m["session.chunk_ms_plain"] = base
	for c, name := range map[int]string{
		classRemap:    "loadbal.remap_extra_ms",
		classMember:   "elastic.transition_extra_ms",
		classRecovery: "ckpt.recovery_extra_ms",
	} {
		if len(byClass[c]) > 0 {
			m[name] = median(byClass[c]) - base
		}
	}
}

func pooledOne(eps []*episode, pick func(*episode) float64) []float64 {
	out := make([]float64, len(eps))
	for i, ep := range eps {
		out[i] = pick(ep)
	}
	return out
}

func serviceMetrics(eps []*episode, m metrics) {
	svc := func(pick func(*serviceCounters) []float64) float64 {
		return median(pooled(eps, func(ep *episode) []float64 { return pick(ep.svc) }))
	}
	m["jobsvc.submit_ms_p50"] = svc(func(c *serviceCounters) []float64 { return c.submitMs })
	m["jobsvc.status_ms_p50"] = svc(func(c *serviceCounters) []float64 { return c.statusMs })
	m["jobsvc.queue_ms_p50"] = svc(func(c *serviceCounters) []float64 { return c.queueMs })
	m["jobsvc.run_ms_p50"] = svc(func(c *serviceCounters) []float64 { return c.runMs })
	m["jobsvc.session_wall_ms_p50"] = svc(func(c *serviceCounters) []float64 { return c.sessionMs })
	m["jobsvc.overhead_ms_p50"] = svc(func(c *serviceCounters) []float64 { return c.overheadMs })
	jobMetrics(eps, m)
	jobs := pooled(eps, func(ep *episode) []float64 { return ep.opMs })
	pct := tailPercentile(len(jobs))
	m["jobsvc.job_ms_tail"], m["jobsvc.job_tail_pct"] = quantile(jobs, pct/100), pct
	first := eps[0]
	done := float64(len(first.opMs))
	m["jobsvc.polls_per_job"] = float64(first.svc.polls) / done
	m["jobsvc.resizes"] = float64(first.svc.resizes)
	m["jobsvc.rejected"] = float64(first.svc.rejected)
	m["jobsvc.pool_msgs_per_job"] = float64(first.svc.poolMsgs) / done
	m["jobsvc.metrics_ms"] = median(pooledOne(eps, func(ep *episode) float64 { return ms(ep.svc.metricsT) }))
	m["jobsvc.ready_ms"] = median(pooledOne(eps, func(ep *episode) float64 { return ms(ep.svc.readyT) }))
}
