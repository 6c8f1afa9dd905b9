package main

// metricDef names one number the benchmark reports. BENCHMARK.json at
// the repository root lists the same names, units, directions and
// bounds; TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which the metric may
	// get worse before a change counts as a regression. Per-layer
	// metrics are reported, not gated, and have none — except
	// session.virtual_wall_s, which -compare holds to one.
	Bound float64
	// Exact marks a counter that two runs of one commit with one seed
	// must reproduce to the last digit.
	Exact bool
}

// endToEnd are measured with benchmark-side tracing off, on every
// workload. An operation is one Run(10) chunk through the facade or one
// job through stanced (submit until the first poll that shows it
// terminal), and an operation's iterations are the 10 of the chunk or the
// job's own. A run repeats the workload's fixed job, and every piece of
// the job counts at the best of the repeats (endToEndMetrics).
var endToEnd = []metricDef{
	// best wall of stance.NewSession over the run's jobs (service-c2: jobsvc.New until the fresh service has finished its first job)
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// median over the job's chunks of the chunk's best wall / 10, benchmark stopwatch (service-c2: the best repeat's median job latency / 200)
	{Name: "iter_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	// the job's timed iterations / the sum of its chunks' best walls at the stated mesh; remap, transition and recovery chunks included (service-c2: / the best repeat's timed wall)
	{Name: "iters_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	// process user+sys CPU of the job's timed chunks, read at their quarter marks, each quarter at its best / the iterations; survives ranks > cores (service-c2: the best repeat's whole timed phase)
	{Name: "cpu_ms_per_iter", Unit: "ms", Better: "lower", Bound: 0.25},
	// ru_maxrss of the workload's process
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer come from the traced run: the hand-driven ladder below the
// session, the public counters, and the traced jobs. A metric that does
// not apply to a workload reads 0 there: the wire counters off tcp, the
// adaptive section off adaptive-p4, the service section off service-c2.
var perLayer = []metricDef{
	// Set-up ladder, at the workload's p.
	{Name: "order.rcb_ms", Unit: "ms", Better: "lower"},                    // one order.RCB call on the mesh
	{Name: "graph.permute_ms", Unit: "ms", Better: "lower"},                // one Graph.Permute call
	{Name: "comm.open_ms", Unit: "ms", Better: "lower"},                    // comm.Open of the workload's transport at p
	{Name: "core.new_ms", Unit: "ms", Better: "lower"},                     // wall of core.New on all ranks under World.SPMD
	{Name: "core.new_cpu_ms", Unit: "ms", Better: "lower"},                 // process CPU of the same section
	{Name: "sched.build_ms_max", Unit: "ms", Better: "lower"},              // sched.BuildSort2 per rank, one at a time: the slowest (critical path)
	{Name: "sched.build_ms_sum", Unit: "ms", Better: "lower"},              // the same, summed over ranks (total work)
	{Name: "sched.compile_ms_sum", Unit: "ms", Better: "lower"},            // sched.Compile + Plan.Classify summed over ranks
	{Name: "sched.ghosts", Unit: "count", Better: "lower", Exact: true},    // ghost elements summed over ranks
	{Name: "sched.peers_max", Unit: "count", Better: "lower", Exact: true}, // most peers any rank exchanges with
	{Name: "solver.new_ms", Unit: "ms", Better: "lower"},                   // wall of solver.New (+ fields, mode) on all ranks under SPMD
	{Name: "session.new_ms", Unit: "ms", Better: "lower"},                  // median wall of stance.NewSession over the traced run's jobs
	{Name: "session.setup_self_ms", Unit: "ms", Better: "lower"},           // session.new_ms - comm.open_ms - core.new_ms - solver.new_ms

	// Iteration ladder: codec, mailbox, transport, executor op, solver
	// step, session run.
	{Name: "comm.pack_ns_per_f64", Unit: "ns", Better: "lower"},                     // PackF64s + UnpackF64s per value over a real ghost index list
	{Name: "comm.pingpong_us", Unit: "us", Better: "lower"},                         // round trip between 2 ranks of a median ghost message / 2, on the workload's transport
	{Name: "comm.pingpong_allocs", Unit: "count", Better: "lower"},                  // heap allocations per one-way message of that ping-pong
	{Name: "comm.fanin_us_per_msg", Unit: "us", Better: "lower"},                    // p-1 senders into one RecvAny, per message received
	{Name: "comm.barrier_us", Unit: "us", Better: "lower"},                          // one Barrier at p
	{Name: "comm.allgather_us", Unit: "us", Better: "lower"},                        // one AllGather of 24-byte reports at p
	{Name: "comm.allreduce_us", Unit: "us", Better: "lower"},                        // one AllReduceF64 of one value at p
	{Name: "comm.msgs_per_iter", Unit: "count", Better: "lower", Exact: true},       // RunReport.Msgs / iterations over one job's timed chunks
	{Name: "comm.bytes_per_iter", Unit: "count", Better: "lower", Exact: true},      // RunReport.Bytes / iterations
	{Name: "core.exchange_us", Unit: "us", Better: "lower"},                         // one Runtime.Exchange on all ranks (wall / ops)
	{Name: "core.exchange_cpu_us", Unit: "us", Better: "lower"},                     // process CPU per Exchange
	{Name: "core.exchange_allocs", Unit: "count", Better: "lower"},                  // heap allocations per Exchange, all ranks
	{Name: "core.exchange_split_us", Unit: "us", Better: "lower"},                   // ExchangeStart + Wait
	{Name: "core.scatteradd_us", Unit: "us", Better: "lower"},                       // one Runtime.ScatterAdd on all ranks
	{Name: "core.exec_msgs_per_iter", Unit: "count", Better: "lower", Exact: true},  // RunReport.Exec.Msgs / iterations
	{Name: "core.exec_bytes_per_iter", Unit: "count", Better: "lower", Exact: true}, // RunReport.Exec.Bytes / iterations
	{Name: "core.idle_ms_per_iter", Unit: "ms", Better: "lower"},                    // RunReport.Exec.Idle summed over ranks / iterations: time waiting for other ranks
	{Name: "core.overlapped_ops", Unit: "count", Better: "higher", Exact: true},     // RunReport.Exec.Overlapped over one job
	{Name: "core.pipelined_ops", Unit: "count", Better: "higher", Exact: true},      // RunReport.Exec.Pipelined over one job
	{Name: "solver.kernel_us", Unit: "us", Better: "lower"},                         // one Figure8.Sweep over a rank's LocalAdj, slowest rank
	{Name: "solver.kernel_ns_per_edge", Unit: "ns", Better: "lower"},                // that sweep per adjacency entry
	{Name: "solver.sweeps_per_iter", Unit: "count", Better: "lower", Exact: true},   // full sweeps one Step performs per field: WorkRep + 1
	{Name: "solver.step_us", Unit: "us", Better: "lower"},                           // hand-driven Solver step loop under SPMD, per iteration
	{Name: "solver.self_us", Unit: "us", Better: "lower"},                           // step - fields x (exchange + kernel x sweeps_per_iter)
	{Name: "solver.compute_ms_per_iter", Unit: "ms", Better: "lower"},               // RunReport.Ranks Compute, slowest rank, per iteration
	{Name: "solver.comm_ms_per_iter", Unit: "ms", Better: "lower"},                  // RunReport.Ranks Comm, slowest rank, per iteration
	{Name: "session.run_us_per_iter", Unit: "us", Better: "lower"},                  // the traced jobs' iter_ms_p50 (service-c2: the job report's Wall / its iterations)
	{Name: "session.self_us_per_iter", Unit: "us", Better: "lower"},                 // session.run_us_per_iter - solver.step_us
	{Name: "session.chunk_ms_tail", Unit: "ms", Better: "lower"},                    // chunk wall at session.chunk_tail_pct
	{Name: "session.chunk_tail_pct", Unit: "%", Better: "higher"},                   // highest percentile with at least 10 chunk samples beyond it
	{Name: "session.chunk_samples", Unit: "count", Better: "higher"},                // chunk samples behind the two numbers above
	{Name: "session.allocs_per_iter", Unit: "count", Better: "lower"},               // heap allocations per iteration over a job's timed chunks
	{Name: "session.alloc_bytes_per_iter", Unit: "count", Better: "lower"},          // bytes allocated per iteration
	{Name: "session.gc_pause_ms", Unit: "ms", Better: "lower"},                      // GC pause total over a job's timed chunks
	{Name: "session.result_ms", Unit: "ms", Better: "lower"},                        // Session.ResultByVertex
	{Name: "session.close_ms", Unit: "ms", Better: "lower"},                         // Session.Close

	// Baseline.
	{Name: "solver.seq_iter_ms", Unit: "ms", Better: "lower"},        // the plain single-threaded reference loop, per iteration
	{Name: "solver.speedup_vs_seq", Unit: "ratio", Better: "higher"}, // solver.seq_iter_ms / session.run_us_per_iter
	{Name: "solver.efficiency", Unit: "ratio", Better: "higher"},     // RunReport.Efficiency (kernel-p2 only: ranks <= cores)

	// Wire (tcp only).
	{Name: "comm.wire_flushes_per_iter", Unit: "count", Better: "lower"}, // RunReport.Transport.NFlushes / iterations
	{Name: "comm.wire_bytes_per_iter", Unit: "count", Better: "lower"},   // RunReport.Transport.NTxByte / iterations
	{Name: "comm.wire_msgs_per_flush", Unit: "count", Better: "higher"},  // RunReport.Transport NTx / NFlushes
	{Name: "comm.wire_backpressure", Unit: "count", Better: "lower"},     // RunReport.Transport.NTxBackpressure over one job

	// Adaptive: chunk classes from each chunk's own RunReport, exact
	// counts, and hand-driven rungs.
	{Name: "session.virtual_wall_s", Unit: "s", Better: "lower", Exact: true, Bound: 0.01}, // sum of RunReport.Wall over one job's timed chunks on the sim clock: decision quality
	{Name: "session.chunk_ms_plain", Unit: "ms", Better: "lower"},                          // median wall of chunks with no remap, transition or recovery
	{Name: "loadbal.remap_extra_ms", Unit: "ms", Better: "lower"},                          // median remap chunk - median plain chunk
	{Name: "elastic.transition_extra_ms", Unit: "ms", Better: "lower"},                     // median membership chunk - median plain chunk
	{Name: "ckpt.recovery_extra_ms", Unit: "ms", Better: "lower"},                          // median recovery chunk - median plain chunk
	{Name: "session.checks", Unit: "count", Better: "lower", Exact: true},                  // balance checks in one job
	{Name: "session.remaps", Unit: "count", Better: "lower", Exact: true},                  // checks that remapped
	{Name: "session.members", Unit: "count", Better: "lower", Exact: true},                 // membership transitions
	{Name: "session.recoveries", Unit: "count", Better: "lower", Exact: true},              // crash recoveries
	{Name: "elastic.migrated_bytes", Unit: "count", Better: "lower", Exact: true},          // MembershipEvent.MovedBytes summed
	{Name: "ckpt.rollback_iters", Unit: "count", Better: "lower", Exact: true},             // RecoveryEvent.RollbackDepth summed
	{Name: "ckpt.snapshot_bytes", Unit: "count", Better: "lower", Exact: true},             // encoded size of one checkpoint of all ranks
	{Name: "loadbal.check_us", Unit: "us", Better: "lower"},                                // one Balancer.Check on a balanced report at p
	{Name: "core.remap_ms", Unit: "ms", Better: "lower"},                                   // Runtime.Remap to 2:1 weights and back, per remap
	{Name: "core.remap_moved_bytes", Unit: "count", Better: "lower", Exact: true},          // bytes one such remap moves
	{Name: "core.inspector_ms", Unit: "ms", Better: "lower"},                               // LastInspectorTime after that remap, slowest rank
	{Name: "redist.mcr_us", Unit: "us", Better: "lower"},                                   // one MinimizeCostRedistribution at p
	{Name: "redist.plan_us", Unit: "us", Better: "lower"},                                  // one redist.NewPlan per rank, summed
	{Name: "ckpt.take_ms", Unit: "ms", Better: "lower"},                                    // one Store.Take on all ranks
	{Name: "vtime.event_us", Unit: "us", Better: "lower"},                                  // real time per sim-clock advance with p sleepers in lock-step
	{Name: "vtime.virtual_per_real", Unit: "ratio", Better: "higher"},                      // virtual seconds per real second over one adaptive job

	// Service.
	{Name: "jobsvc.ready_ms", Unit: "ms", Better: "lower"},             // jobsvc.New until the listener answers its first request
	{Name: "jobsvc.submit_ms_p50", Unit: "ms", Better: "lower"},        // client.Submit (the synchronous POST)
	{Name: "jobsvc.status_ms_p50", Unit: "ms", Better: "lower"},        // client.Job (one poll)
	{Name: "jobsvc.queue_ms_p50", Unit: "ms", Better: "lower"},         // Status Started - Submitted
	{Name: "jobsvc.run_ms_p50", Unit: "ms", Better: "lower"},           // Status Finished - Started
	{Name: "jobsvc.session_wall_ms_p50", Unit: "ms", Better: "lower"},  // the job report's Wall
	{Name: "jobsvc.overhead_ms_p50", Unit: "ms", Better: "lower"},      // job latency - report Wall
	{Name: "jobsvc.job_ms_p50", Unit: "ms", Better: "lower"},           // job latency, client stopwatch from before Submit to the first poll showing a terminal state
	{Name: "jobsvc.jobs_per_s", Unit: "1/s", Better: "higher"},         // median over service lifetimes of timed jobs / timed wall, 2 closed-loop clients
	{Name: "jobsvc.job_ms_tail", Unit: "ms", Better: "lower"},          // job latency at jobsvc.job_tail_pct
	{Name: "jobsvc.job_tail_pct", Unit: "%", Better: "higher"},         // highest percentile with at least 10 job samples beyond it
	{Name: "jobsvc.polls_per_job", Unit: "count", Better: "lower"},     // status requests per job
	{Name: "jobsvc.resizes", Unit: "count", Better: "lower"},           // committed shrinks and regrows over the timed jobs of one episode
	{Name: "jobsvc.rejected", Unit: "count", Better: "lower"},          // submissions refused with 429
	{Name: "jobsvc.metrics_ms", Unit: "ms", Better: "lower"},           // GET /metrics after the timed jobs
	{Name: "jobsvc.pool_msgs_per_job", Unit: "count", Better: "lower"}, // pool world messages per timed job

	// Harness.
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"}, // traced vs untraced median iteration time in the same process
	{Name: "bench.reference_s", Unit: "s", Better: "lower"},        // time spent computing the sequential reference
}

// metrics is one run's numbers by name.
type metrics map[string]float64

func defByName(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
