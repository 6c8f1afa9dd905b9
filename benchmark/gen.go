package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"stance"
	"stance/client"
	"stance/internal/ckpt"
	"stance/internal/graph"
	"stance/internal/hetero"
	"stance/internal/jobsvc"
)

// checkEvery is the session's check period (the facade default) and the
// length of one timed chunk: a chunk of Run(checkEvery) contains exactly
// one check boundary.
const checkEvery = 10

// workload is one named set of inputs. Everything the runtime sees is
// derived from these fields and the seed; nothing in the runtime learns
// the workload's name.
type workload struct {
	Name string
	// Why is the reason the workload exists (copied into BENCHMARK.json
	// and the README).
	Why string
	// Mesh is the computational graph, in the job service's generator
	// vocabulary so the same description serves the facade and stanced.
	Mesh jobsvc.GraphSpec
	// P is the number of ranks (the pool size for the service load).
	P         int
	Transport string
	WorkRep   int
	Pipeline  int
	Fields    int
	// Adaptive runs on the simulated clock with virtual compute, the
	// modeled Ethernet, the split-phase executor, the balancer, buddy
	// checkpoints and a generated environment.
	Adaptive bool
	// Chunks is the fixed number of timed Run(checkEvery) chunks in one
	// job through the facade (after one untimed warm-up chunk).
	Chunks int
	// Service drives the mesh through an in-process stanced instead of
	// the facade: Jobs timed jobs of JobIters iterations per episode,
	// submitted by Clients closed-loop clients after WarmJobs.
	Service  bool
	Jobs     int
	WarmJobs int
	JobIters int
	Clients  int
	// Deadline bounds one episode (about 3x its expected time on the
	// authoring machine and never less than a slow machine needs): a
	// hang becomes a counted failure.
	Deadline time.Duration
}

// workloads are sized for a 2-core machine and a measured phase of
// about twenty seconds: a run repeats the workload's fixed job until the
// time given by -seconds is used up, so every job does the same work
// and its counters repeat exactly. The jobs are short (one to three
// seconds) so that a run holds seven or more repeats: each piece of the
// job is read at its best over them (endToEndMetrics).
var workloads = []workload{
	{
		Name: "kernel-p2",
		Why:  "ranks <= cores and 8x kernel work: the bypass workload, only kernel changes should move it",
		Mesh: jobsvc.GraphSpec{Kind: "grid", Rows: 300, Cols: 300, Perturb: 0.2},
		P:    2, WorkRep: 8, Chunks: 20, Deadline: 60 * time.Second,
	},
	{
		Name: "scale-p64",
		Why:  "64 ranks on a small mesh: per-rank set-up, mailbox fan-in, linear collectives and executor bookkeeping dominate",
		Mesh: jobsvc.GraphSpec{Kind: "grid", Rows: 150, Cols: 150, Perturb: 0.2},
		P:    64, WorkRep: 1, Chunks: 60, Deadline: 90 * time.Second,
	},
	{
		Name: "wire-p4",
		Why:  "same executor traffic through tcp frames, batching and sockets, on the pipelined two-field executor",
		Mesh: jobsvc.GraphSpec{Kind: "grid", Rows: 300, Cols: 300, Perturb: 0.2},
		P:    4, Transport: "tcp", WorkRep: 1, Pipeline: 2, Fields: 2, Chunks: 40, Deadline: 60 * time.Second,
	},
	{
		Name: "adaptive-p4",
		Why:  "sim clock with loads, outages and one kill: balancer, remap, epoch protocol, checkpoint and recovery do the work",
		Mesh: jobsvc.GraphSpec{Kind: "grid", Rows: 300, Cols: 300, Perturb: 0.2},
		P:    4, WorkRep: 1, Adaptive: true, Chunks: 80, Deadline: 90 * time.Second,
	},
	{
		Name: "service-c2",
		Why:  "closed loop of 2 clients submitting short jobs to stanced: submit, graph build, carve-out, set-up and scheduling dominate",
		Mesh: jobsvc.GraphSpec{Kind: "honeycomb", Rows: 60, Cols: 80},
		P:    4, WorkRep: 1, Service: true, Jobs: 40, WarmJobs: 6, JobIters: 200, Clients: 2,
		Deadline: 60 * time.Second,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// iters is the number of solver iterations one facade job runs,
// warm-up chunk included.
func (w workload) iters() int { return (1 + w.Chunks) * checkEvery }

// buildMesh generates the workload's graph for a seed. Only the grid
// has a random part (the coordinate jitter that shapes the RCB cut).
func (w workload) buildMesh(seed int64) (*graph.Graph, error) {
	gs := w.Mesh
	gs.Seed = seed
	return gs.Build()
}

// scenario is the generated adaptive environment, in the shape it is
// printed and compared in: same seed, byte-identical JSON.
type scenario struct {
	Iters   int             `json:"iters"`
	Speeds  []float64       `json:"speeds"`
	Loads   []hetero.Load   `json:"loads"`
	Outages []hetero.Outage `json:"outages"`
	Kill    ckpt.Kill       `json:"kill"`
}

func (sc *scenario) env() *hetero.Env {
	return &hetero.Env{Speeds: sc.Speeds, Loads: sc.Loads, Outages: sc.Outages}
}

func (sc *scenario) json() []byte {
	data, err := json.Marshal(sc)
	if err != nil {
		panic(err) // plain numbers and slices cannot fail to marshal
	}
	return data
}

// quietFrom is the iteration from which a run of iters iterations has
// no outage: the last 15 %, and never less than the last tenth plus two
// check periods. The kill falls in the last tenth, so the victim and
// its buddy are both active, and have been for two checkpoints, when it
// fires.
func quietFrom(iters int) int {
	return iters - max(iters*15/100, iters/10+2*checkEvery)
}

// genScenario derives the adaptive environment for a run of iters
// iterations on p ranks: one slow workstation, a competing-load window
// per 200 iterations (factor 2-4, 60-140 iterations long), an outage of
// a non-coordinator rank per 300 iterations (40-80 long, all inside the
// first 85 % at most), and one kill of a non-coordinator rank in the last
// tenth. Densities, not counts, are fixed, so the scenario keeps its
// character at any length.
func genScenario(seed int64, p, iters int) *scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &scenario{Iters: iters, Speeds: make([]float64, p)}
	for i := range sc.Speeds {
		sc.Speeds[i] = 1
	}
	sc.Speeds[p/2] = 0.5
	for i := 0; i < max(1, iters/200); i++ {
		dur := 60 + rng.Intn(81)
		from := rng.Intn(max(1, iters-dur))
		sc.Loads = append(sc.Loads, hetero.Load{
			Rank:      rng.Intn(p),
			Factor:    2 + 2*rng.Float64(),
			FromIter:  from,
			UntilIter: from + dur,
		})
	}
	quiet := quietFrom(iters)
	for i := 0; i < max(1, iters/300); i++ {
		dur := 40 + rng.Intn(41)
		from := checkEvery + rng.Intn(max(1, quiet-dur-checkEvery))
		sc.Outages = append(sc.Outages, hetero.Outage{
			Rank:      1 + rng.Intn(p-1),
			FromIter:  from,
			UntilIter: min(from+dur, quiet),
		})
	}
	sort.SliceStable(sc.Loads, func(i, j int) bool { return sc.Loads[i].FromIter < sc.Loads[j].FromIter })
	sort.SliceStable(sc.Outages, func(i, j int) bool { return sc.Outages[i].FromIter < sc.Outages[j].FromIter })
	lastTenth := iters - iters/10
	sc.Kill = ckpt.Kill{
		Rank: 1 + rng.Intn(p-1),
		Iter: lastTenth + rng.Intn(max(1, iters/10-2*checkEvery)),
	}
	return sc
}

// checkKillPlacement asserts the rules that keep the injected crash
// recoverable: the victim is not the coordinator, and at the kill and
// for two check periods either side of it neither the victim nor the
// rank holding its checkpoint is inside an outage.
func (sc *scenario) checkKillPlacement() error {
	env := sc.env()
	if err := env.Validate(); err != nil {
		return err
	}
	k := sc.Kill
	if k.Rank == 0 {
		return fmt.Errorf("kill names the coordinator")
	}
	if k.Iter < sc.Iters-sc.Iters/10 || k.Iter >= sc.Iters {
		return fmt.Errorf("kill at iteration %d is outside the last tenth of %d", k.Iter, sc.Iters)
	}
	buddy := ckpt.Holder(k.Rank, env.ActiveSet(k.Iter))
	if buddy == k.Rank {
		return fmt.Errorf("victim %d has no buddy at iteration %d", k.Rank, k.Iter)
	}
	for it := max(0, k.Iter-2*checkEvery); it <= min(sc.Iters, k.Iter+2*checkEvery); it++ {
		for _, r := range []int{k.Rank, buddy} {
			if !env.Available(r, it) {
				return fmt.Errorf("rank %d is in an outage at iteration %d, within two checks of the kill at %d", r, it, k.Iter)
			}
		}
	}
	return nil
}

// sessionOptions turns the workload (and, for the adaptive one, its
// generated scenario) into facade options.
func (w workload) sessionOptions(sc *scenario) []stance.Option {
	opts := []stance.Option{stance.WithOrdering("rcb"), stance.WithWorkRep(w.WorkRep)}
	if w.Transport != "" {
		opts = append(opts, stance.WithTransport(w.Transport))
	}
	if w.Pipeline > 0 {
		opts = append(opts, stance.WithPipeline(w.Pipeline))
	}
	if w.Fields > 1 {
		opts = append(opts, stance.WithFields(w.Fields))
	}
	if w.Adaptive {
		opts = append(opts,
			stance.WithClock(stance.NewSimClock()),
			stance.WithVirtualCompute(time.Microsecond),
			stance.WithNetworkModel(stance.Ethernet(0.01)),
			stance.WithOverlap(),
			stance.WithBalancer(stance.BalancerConfig{}),
			stance.WithEnv(sc.env()),
			stance.WithCheckpoint(stance.CheckpointConfig{
				DetectTimeout: 5 * time.Second,
				Kills:         []stance.Kill{sc.Kill},
			}),
		)
	}
	return opts
}

// genJobs derives the service load: n job specs on the workload's mesh,
// one job in every ten — at a seeded position — asking for its result
// back so it can be checked against the reference.
func genJobs(seed int64, w workload, n int) []client.Spec {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]client.Spec, n)
	for base := 0; base < n; base += 10 {
		pick := base + rng.Intn(10)
		for i := base; i < min(base+10, n); i++ {
			jobs[i] = client.Spec{
				Name:         fmt.Sprintf("s%d-j%d", seed, i),
				Graph:        w.Mesh,
				Iters:        w.JobIters,
				Ranks:        w.P,
				MinRanks:     1,
				WorkRep:      w.WorkRep,
				ReturnResult: i == pick,
			}
		}
	}
	return jobs
}
