// Package jobsvc is the stanced job service: a long-lived server that
// owns a fixed pool of worker ranks and runs many independent
// computations ("jobs") on it concurrently. Each job gets a sub-world
// carved out of the shared pool (comm.Sub endpoints wrapped as a
// world) and a session of its own; a scheduler with admission control
// queues jobs the pool cannot place yet and uses the elastic
// membership protocol to shrink running jobs and grant the freed ranks
// to queued ones. Disjoint active sets keep the concurrent sessions'
// traffic isolated on the shared mailboxes, so every job computes
// exactly what it would have computed alone in a dedicated world.
package jobsvc

import (
	"fmt"
	"slices"
	"time"

	"stance/internal/ckpt"
	"stance/internal/comm"
	"stance/internal/graph"
	"stance/internal/loadbal"
	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/session"
	"stance/internal/solver"
)

// GraphSpec names one of the built-in mesh generators and its
// parameters. Kind selects the generator; the other fields are read
// per kind and ignored otherwise.
type GraphSpec struct {
	// Kind is "honeycomb", "grid", "annulus", "random" or "paper".
	Kind string `json:"kind"`
	// Rows and Cols size the honeycomb (rows × cols of cells), the
	// triangulated grid (rows × cols of points) and the annulus (rows
	// rings × cols segments).
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Perturb jitters the grid's interior points (grid only).
	Perturb float64 `json:"perturb,omitempty"`
	// N and Radius size the random geometric graph (random only).
	N      int     `json:"n,omitempty"`
	Radius float64 `json:"radius,omitempty"`
	// Seed drives the grid perturbation and the random graph.
	Seed int64 `json:"seed,omitempty"`
}

// Build generates the graph.
func (gs GraphSpec) Build() (*graph.Graph, error) {
	switch gs.Kind {
	case "honeycomb":
		return mesh.Honeycomb(gs.Rows, gs.Cols)
	case "grid":
		return mesh.GridTriangulated(gs.Rows, gs.Cols, gs.Perturb, gs.Seed)
	case "annulus":
		return mesh.Annulus(gs.Rows, gs.Cols)
	case "random":
		return mesh.RandomGeometric(gs.N, gs.Radius, gs.Seed)
	case "paper":
		return mesh.Paper(), nil
	default:
		return nil, fmt.Errorf("jobsvc: unknown graph kind %q (want honeycomb, grid, annulus, random or paper)", gs.Kind)
	}
}

// Spec is a job submission: what to compute and how many ranks to
// compute it on. It is the JSON body of POST /v1/jobs and maps
// directly onto a session configuration; the zero value of every
// optional field means the session default.
type Spec struct {
	// Name is a caller-chosen label (optional, for humans).
	Name string `json:"name,omitempty"`
	// Graph is the computational mesh.
	Graph GraphSpec `json:"graph"`
	// Iters is the number of solver iterations to run. Required.
	Iters int `json:"iters"`
	// Ranks is the number of pool ranks the job wants. The scheduler
	// may grant fewer (never fewer than MinRanks) and may shrink the
	// job while it runs; results are identical either way. Default 1.
	Ranks int `json:"ranks,omitempty"`
	// MinRanks is the smallest world the job accepts, both at admission
	// and under elastic shrinking. Default 1.
	MinRanks int `json:"min_ranks,omitempty"`
	// Order names the Phase A ordering ("rcb", "hilbert", ...; default
	// "rcb").
	Order string `json:"order,omitempty"`
	// CheckEvery is the balance/membership boundary period (default
	// 10). It is also the granularity at which scheduler-initiated
	// resizes take effect.
	CheckEvery int `json:"check_every,omitempty"`
	// WorkRep amplifies the kernel work per element (default 1).
	WorkRep int `json:"work_rep,omitempty"`
	// Kernel names a built-in solver kernel ("" means the default).
	Kernel string `json:"kernel,omitempty"`
	// Overlap runs the job at executor depth 1 (session.Config.Pipeline):
	// ghost exchanges fly behind the interior sweep.
	Overlap bool `json:"overlap,omitempty"`
	// ComputeCost virtualizes compute: each element charges this many
	// nanoseconds to the clock per iteration instead of spinning.
	// Essential under a simulated clock, where real spinning would
	// take zero virtual time.
	ComputeCost time.Duration `json:"compute_cost_ns,omitempty"`
	// Balance enables the Phase D load balancer.
	Balance bool `json:"balance,omitempty"`
	// Timeout fails the job if it has not finished this long after
	// submission (0 means no deadline). Measured on the service clock,
	// so virtual on a simulated one.
	Timeout time.Duration `json:"timeout_ns,omitempty"`
	// ReturnResult gathers the solution vector (original vertex order)
	// into the job status when the job completes. Large for big
	// meshes; off by default.
	ReturnResult bool `json:"return_result,omitempty"`
	// Checkpoint enables crash-stop fault tolerance for the job: buddy
	// checkpoints at every check boundary, kill detection under
	// DetectTimeout, and survivor-side restart. Recovered jobs finish
	// with Report.Recoveries telling the story; an unrecoverable
	// failure fails the job with its cause, never a hung grant.
	// Injected kills naming ranks the scheduler did not grant are
	// dropped (the rank never existed).
	Checkpoint *ckpt.Config `json:"checkpoint,omitempty"`
}

// withDefaults returns the spec with zero optional fields resolved.
func (sp Spec) withDefaults() Spec {
	if sp.Ranks == 0 {
		sp.Ranks = 1
	}
	if sp.MinRanks == 0 {
		sp.MinRanks = 1
	}
	if sp.Order == "" {
		sp.Order = "rcb"
	}
	return sp
}

// validate checks a defaulted spec against the service's own limits.
// What the job's session would reject is sessionConfig's to report.
func (sp Spec) validate(maxRanks int) error {
	if sp.Iters <= 0 {
		return fmt.Errorf("jobsvc: iters %d, want > 0", sp.Iters)
	}
	if sp.Ranks < 1 || sp.Ranks > maxRanks {
		return fmt.Errorf("jobsvc: ranks %d, want 1 to the per-job limit %d", sp.Ranks, maxRanks)
	}
	if sp.MinRanks < 1 || sp.MinRanks > sp.Ranks {
		return fmt.Errorf("jobsvc: min_ranks %d, want 1 to ranks %d", sp.MinRanks, sp.Ranks)
	}
	if sp.Timeout < 0 {
		return fmt.Errorf("jobsvc: negative timeout %v", sp.Timeout)
	}
	return nil
}

// sessionConfig maps a defaulted spec onto its session on a world of
// the requested Ranks and validates it: the session's rules are the
// spec's. The ordering and kernel names resolve here, once per job.
func (sp Spec) sessionConfig() (session.Config, error) {
	cfg := session.Config{
		Procs:       sp.Ranks,
		CheckEvery:  sp.CheckEvery,
		WorkRep:     sp.WorkRep,
		ComputeCost: sp.ComputeCost,
		Checkpoint:  sp.Checkpoint,
	}
	var err error
	if cfg.Order, err = order.ByName(sp.Order); err != nil {
		return cfg, err
	}
	if sp.Kernel != "" {
		if cfg.Kernel, err = solver.KernelByName(sp.Kernel); err != nil {
			return cfg, err
		}
	}
	if sp.Overlap {
		cfg.Pipeline = 1
	}
	if sp.Balance {
		cfg.Balancer = &loadbal.Config{}
	}
	return cfg, cfg.Validate()
}

// onWorld moves a job's session configuration onto the sub-world the
// scheduler granted it. Worlds larger than one rank run elastic so the
// scheduler can resize them mid-run. The grant may be smaller than the
// request: injected kills naming sub-ranks beyond it are dropped — the
// rank they would crash never existed.
func onWorld(cfg session.Config, world *comm.World) session.Config {
	cfg.Procs = world.Size()
	cfg.World = world
	cfg.Elastic = world.Size() > 1
	if ck := cfg.Checkpoint; ck != nil {
		kept := *ck
		kept.Kills = slices.DeleteFunc(slices.Clone(ck.Kills), func(k ckpt.Kill) bool { return k.Rank >= world.Size() })
		cfg.Checkpoint = &kept
	}
	return cfg
}
