// Command stance-run executes the paper's iterative irregular loop on
// a simulated (or TCP-connected) cluster with arbitrary mesh, ordering,
// heterogeneity and load-balancing settings — the workbench the
// examples and tables are special cases of. It is a thin shell over
// the session API: every run is one NewSession + Run.
//
// Examples:
//
//	stance-run -p 4 -iters 50 -mesh honeycomb:60x80 -order rcb
//	stance-run -p 3 -load 0:3 -lb -check-every 10
//	stance-run -p 2 -transport tcp -mesh grid:40x40
//	stance-run -scenario cluster.json -iters 100 -lb
//
// A scenario file describes the whole simulated cluster as JSON —
// per-workstation speeds, competing loads and availability outages
// (which enable elastic membership):
//
//	{"speeds": [1, 1, 0.5, 1],
//	 "loads": [{"rank": 1, "factor": 3, "fromIter": 20}],
//	 "outages": [{"rank": 2, "fromIter": 30, "untilIter": 70}]}
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stance/internal/ckpt"
	"stance/internal/comm"
	"stance/internal/hetero"
	"stance/internal/loadbal"
	"stance/internal/mesh"
	"stance/internal/meshspec"
	"stance/internal/order"
	"stance/internal/redist"
	"stance/internal/session"
	"stance/internal/solver"
	"stance/internal/vtime"
)

type killFlags []ckpt.Kill

func (k *killFlags) String() string { return fmt.Sprint(*k) }

// Set parses "rank:iter".
func (k *killFlags) Set(s string) error {
	var kl ckpt.Kill
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return fmt.Errorf("kill %q: want rank:iter", s)
	}
	var err error
	if kl.Rank, err = strconv.Atoi(parts[0]); err != nil {
		return fmt.Errorf("kill rank %q: %v", parts[0], err)
	}
	if kl.Iter, err = strconv.Atoi(parts[1]); err != nil {
		return fmt.Errorf("kill iter %q: %v", parts[1], err)
	}
	*k = append(*k, kl)
	return nil
}

type loadFlags []hetero.Load

func (l *loadFlags) String() string { return fmt.Sprint(*l) }

// Set parses "rank:factor[:fromIter[:untilIter]]". strconv rejects
// trailing garbage ("3junk"), unlike fmt.Sscanf.
func (l *loadFlags) Set(s string) error {
	var ld hetero.Load
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 4 {
		return fmt.Errorf("load %q: want rank:factor[:from[:until]]", s)
	}
	var err error
	if ld.Rank, err = strconv.Atoi(parts[0]); err != nil {
		return fmt.Errorf("load rank %q: %v", parts[0], err)
	}
	if ld.Factor, err = strconv.ParseFloat(parts[1], 64); err != nil {
		return fmt.Errorf("load factor %q: %v", parts[1], err)
	}
	if len(parts) > 2 {
		if ld.FromIter, err = strconv.Atoi(parts[2]); err != nil {
			return fmt.Errorf("load from %q: %v", parts[2], err)
		}
	}
	if len(parts) > 3 {
		if ld.UntilIter, err = strconv.Atoi(parts[3]); err != nil {
			return fmt.Errorf("load until %q: %v", parts[3], err)
		}
	}
	*l = append(*l, ld)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("stance-run: ")
	p := flag.Int("p", 4, "number of workstations")
	iters := flag.Int("iters", 50, "iterations of the parallel loop")
	workRep := flag.Int("work", 200, "kernel work amplification per element")
	meshSpec := flag.String("mesh", "honeycomb:60x80", "mesh: "+meshspec.Names())
	ordName := flag.String("order", "rcb", "locality ordering: "+strings.Join(order.Names(), ", "))
	lb := flag.Bool("lb", false, "enable adaptive load balancing")
	pipeline := flag.Int("pipeline", 0, "executor depth: 0 = synchronous exchange then sweep, 1 = every field's exchange in flight behind the interior sweep, >=2 = a field's next exchange also departs as soon as its update completes")
	fields := flag.Int("fields", 1, "independent solution fields the solver advances per iteration (>=2 lets -pipeline fly several exchanges at once)")
	kernelName := flag.String("kernel", "figure8", "solver compute body: "+solver.KernelNames())
	checkEvery := flag.Int("check-every", 10, "iterations between load-balance checks")
	netScale := flag.Float64("netscale", 0.1, "Ethernet model scale (in-process transport only)")
	groups := flag.Int("groups", 0, "node-group count for a two-level cluster: ranks split into this many groups over a slower inter-group link (0 = flat); enables the hierarchy-aware cut")
	interScale := flag.Float64("interscale", 10, "inter-group link slowdown relative to -netscale (with -groups)")
	transport := flag.String("transport", "inproc", "comm transport: "+strings.Join(comm.Transports(), ", "))
	tcp := flag.Bool("tcp", false, "shorthand for -transport tcp")
	weighted := flag.Bool("weighted", false, "balance vertex weight (degree) instead of vertex counts")
	ewma := flag.Float64("ewma", 0, "EWMA smoothing for rate estimates (0 = paper's last-window)")
	scenario := flag.String("scenario", "", "JSON file with the full simulated environment (speeds, loads, outages, traces); conflicts with -load and fixes -p")
	virtual := flag.Bool("virtual", false, "run on the simulated clock: deterministic virtual time, instant wall time (inproc transport only)")
	cost := flag.Duration("cost", 10*time.Microsecond, "virtual compute cost per element per work repetition (with -virtual)")
	ckptTimeout := flag.Duration("ckpt", 0, "enable crash-stop fault tolerance with this failure-detection timeout (0 = off); ranks buddy-checkpoint at every check boundary and survivors restart from the last checkpoint when a rank dies")
	flushPeriod := flag.Duration("flush", 0, "tcp tx batching linger: wait up to this long coalescing sections into one framed write (0 = flush immediately)")
	batchBytes := flag.Int("batch", 0, "tcp tx batch cap in bytes before a forced flush (0 = transport default)")
	compress := flag.String("compress", "", "tcp per-batch compression codec: none, flate or gzip")
	hbInterval := flag.Duration("hb", 0, "tcp heartbeat interval for transport-level liveness (0 = heartbeats off)")
	hbMiss := flag.Int("hb-miss", 0, "consecutive missed tcp heartbeats before a peer is declared dead (0 = transport default)")
	var loads loadFlags
	flag.Var(&loads, "load", "competing load rank:factor[:from[:until]] (repeatable)")
	var kills killFlags
	flag.Var(&kills, "kill", "inject a crash rank:iter — the rank goes permanently silent at that iteration's checkpoint gate (repeatable, requires -ckpt)")
	flag.Parse()
	explicitFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicitFlags[f.Name] = true })
	// Only conflicts between flags are checked here; every value the
	// session would reject is cfg.Validate's to report.
	if *tcp {
		if explicitFlags["transport"] && *transport != "tcp" {
			log.Fatalf("-tcp conflicts with -transport %s", *transport)
		}
		*transport = "tcp"
	}
	if !*virtual && explicitFlags["cost"] {
		log.Fatalf("-cost only applies with -virtual")
	}
	if len(kills) > 0 && *ckptTimeout == 0 {
		log.Fatalf("-kill requires -ckpt: without checkpoints a killed rank is just a hang")
	}
	if *groups == 0 && explicitFlags["interscale"] {
		log.Fatalf("-interscale only applies with -groups")
	}
	if err := comm.CheckEthernetScale(*netScale); err != nil {
		log.Fatalf("-netscale: %v", err)
	}
	if *groups > 0 {
		if err := comm.CheckEthernetScale(*interScale); err != nil {
			log.Fatalf("-interscale: %v", err)
		}
		if err := comm.CheckEthernetScale(*netScale * *interScale); err != nil {
			log.Fatalf("-netscale times -interscale: %v", err)
		}
	}

	// A scenario file owns the whole environment description: flags
	// that would edit it piecemeal conflict rather than silently merge.
	var env *hetero.Env
	if *scenario != "" {
		if len(loads) > 0 {
			log.Fatalf("-scenario conflicts with -load: put the competing loads in %s", *scenario)
		}
		data, err := os.ReadFile(*scenario)
		if err != nil {
			log.Fatal(err)
		}
		env, err = hetero.FromJSON(data)
		if err != nil {
			log.Fatalf("%s: %v", *scenario, err)
		}
		if explicitFlags["p"] && *p != env.P() {
			log.Fatalf("-p %d conflicts with -scenario %s, which describes %d workstations", *p, *scenario, env.P())
		}
		*p = env.P()
	}

	// Ctrl-C cancels the session context: every blocked receive
	// unwinds with context.Canceled instead of the run deadlocking.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	g, err := meshspec.Build(*meshSpec)
	if err != nil {
		log.Fatal(err)
	}
	// Every transport receives the model; ones that run over real
	// sockets (tcp) ignore it.
	kern, err := solver.KernelByName(*kernelName)
	if err != nil {
		log.Fatal(err)
	}
	var est *loadbal.Estimator
	if *ewma != 0 {
		if est, err = loadbal.NewEstimator(loadbal.EstimateEWMA, *ewma); err != nil {
			log.Fatalf("-ewma: %v", err)
		}
	}
	cfg := session.Config{
		Procs:     *p,
		Transport: *transport,
		Net: comm.TransportOptions{
			Model:             comm.Ethernet(*netScale),
			FlushPeriod:       *flushPeriod,
			BatchBytes:        *batchBytes,
			Compression:       *compress,
			HeartbeatInterval: *hbInterval,
			HeartbeatMiss:     *hbMiss,
		},
		Groups:     *groups,
		OrderName:  *ordName,
		WorkRep:    *workRep,
		CheckEvery: *checkEvery,
		Kernel:     kern,
		Pipeline:   *pipeline,
		Fields:     *fields,
	}
	if *virtual {
		// The simulated clock: the run's timings become exact virtual
		// durations, the wall time collapses to milliseconds, and the
		// same invocation reproduces the same report byte for byte.
		cfg.Net.Clock = vtime.NewSim()
		cfg.ComputeCost = *cost
	}
	if *groups > 0 {
		cfg.Net.InterModel = comm.Ethernet(*netScale * *interScale)
	}
	if *ckptTimeout != 0 {
		cfg.Checkpoint = &ckpt.Config{DetectTimeout: *ckptTimeout, Kills: kills}
	}
	if env == nil && *p > 0 {
		// A uniform environment over -p workstations needs -p > 0; a
		// smaller -p fails Validate below.
		env = hetero.Uniform(*p)
		env.Loads = loads
	}
	cfg.Env = env
	if *weighted {
		vw := make([]float64, g.N)
		for v := 0; v < g.N; v++ {
			vw[v] = float64(g.Degree(v)) + 1
		}
		cfg.VertexWeights = vw
	}
	if *lb {
		// Horizon is left zero: the session defaults it to the check
		// interval.
		cfg.Balancer = &loadbal.Config{
			CostModel: redist.CostModel{PerMessage: 1e-3 * *netScale, PerByte: *netScale / 1.25e6},
			Estimator: est,
		}
		// Print remaps live, so long runs show balancing as it happens.
		cfg.OnCheck = func(ev session.CheckEvent) {
			if d := ev.Decision; d.Remapped {
				fmt.Printf("  iter %d: remapped (predicted %.4fs -> %.4fs per phase, cost %.4fs)\n",
					ev.Iter, d.PredictedCurrent, d.PredictedNew, d.EstimatedRemapCost)
			}
		}
	}

	// Validate the whole configuration before printing or building
	// anything, so a rejected run prints nothing but its error.
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	if env.Elastic() {
		// Narrate membership transitions live, like remaps.
		cfg.OnMembership = func(ev session.MembershipEvent) {
			fmt.Printf("  iter %d: epoch %d, active %v (retired %v, admitted %v, moved %d bytes)\n",
				ev.Iter, ev.Epoch, ev.Active, ev.Retired, ev.Admitted, ev.MovedBytes)
		}
	}

	st := mesh.Describe(g)
	fmt.Printf("mesh: %d vertices, %d edges (degree %d..%d), order %s, %d workstations, transport %s\n",
		st.Vertices, st.Edges, st.MinDegree, st.MaxDegree, *ordName, *p, *transport)
	if len(env.Loads) > 0 {
		fmt.Printf("competing loads: %v\n", env.Loads)
	}
	if len(env.Outages) > 0 {
		fmt.Printf("availability outages: %v (elastic membership enabled)\n", env.Outages)
		// Membership is evaluated at check boundaries, so an outage
		// shorter than the check interval can pass entirely unnoticed.
		for _, o := range env.Outages {
			if o.UntilIter > 0 && o.UntilIter-o.FromIter < *checkEvery {
				fmt.Printf("  warning: outage %v spans %d iterations, shorter than -check-every %d; "+
					"it may fall between membership boundaries and be ignored\n",
					o, o.UntilIter-o.FromIter, *checkEvery)
			}
		}
	}

	s, err := session.New(ctx, g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Run(*iters)
	if err != nil {
		log.Fatal(err)
	}

	unit := ""
	if *virtual {
		unit = " virtual"
	}
	fmt.Printf("\n%d iterations in %v%s (%.2f ms/iter)\n", *iters, rep.Wall.Round(time.Millisecond),
		unit, rep.Wall.Seconds()*1e3/float64(*iters))
	fmt.Printf("messages: %d (%d payload bytes)\n", rep.Msgs, rep.Bytes)
	if *groups > 0 {
		fmt.Printf("inter-group (slow link): %d msgs, %d bytes\n", rep.InterMsgs, rep.InterBytes)
	}
	if t := rep.Transport; t != nil && t.NFlushes > 0 {
		fmt.Printf("wire: %d msgs in %d flushes (%.1f msgs/write), %d tx / %d rx bytes, %d hb misses, %d backpressure stalls\n",
			t.NTx, t.NFlushes, float64(t.NTx)/float64(t.NFlushes), t.NTxByte, t.NRxByte, t.NDroppedHB, t.NTxBackpressure)
	}
	if *pipeline > 0 {
		fmt.Printf("executor depth %d (%d fields): %d split-phase ops, %d issued with another in flight, %v un-hidden exchange idle\n",
			*pipeline, *fields, rep.Exec.Overlapped, rep.Exec.Pipelined, rep.Exec.Idle.Round(time.Microsecond))
	}
	fmt.Println("rank  compute     comm        items")
	for r, u := range rep.Ranks {
		fmt.Printf("%4d  %-10v  %-10v  %d\n", r, u.Compute.Round(time.Microsecond),
			u.Comm.Round(time.Microsecond), u.Items)
	}
	if *p > 1 {
		// Section 4 efficiency from measured rates: a rank computing
		// rate seconds/item alone would need rate * meshSize * iters
		// for the whole run.
		if e, err := rep.Efficiency(st.Vertices); err == nil {
			fmt.Printf("efficiency (Section 4 definition, measured rates): %.2f\n", e)
		}
	}
	if *lb {
		fmt.Printf("load-balance checks: %d, remaps: %d\n", len(rep.Checks), len(rep.Remaps()))
	}
	if len(rep.Recoveries) > 0 {
		fmt.Printf("crash recoveries: %d\n", len(rep.Recoveries))
		for _, rc := range rep.Recoveries {
			fmt.Printf("  iter %d: ranks %v died, %v survive (epoch %d); rolled back %d iters to %d, "+
				"detected in %v, restored %d bytes in %v\n",
				rc.Iter, rc.Dead, rc.Active, rc.Epoch, rc.RollbackDepth, rc.RestoredIter,
				rc.DetectLatency.Round(time.Microsecond), rc.RestoredBytes, rc.Duration.Round(time.Microsecond))
		}
	}
	if len(rep.Members) > 0 {
		var moved int64
		for _, ev := range rep.Members {
			moved += ev.MovedBytes
		}
		fmt.Printf("membership transitions: %d (migrated %d bytes)\n", len(rep.Members), moved)
	}
}
