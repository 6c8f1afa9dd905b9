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
	if sp.Ranks <= 0 {
		sp.Ranks = 1
	}
	if sp.MinRanks <= 0 {
		sp.MinRanks = 1
	}
	if sp.Order == "" {
		sp.Order = "rcb"
	}
	return sp
}

// validate checks a defaulted spec against the service limits.
func (sp Spec) validate(maxRanks int) error {
	if sp.Iters <= 0 {
		return fmt.Errorf("jobsvc: iters %d, want > 0", sp.Iters)
	}
	if sp.MinRanks > sp.Ranks {
		return fmt.Errorf("jobsvc: min_ranks %d > ranks %d", sp.MinRanks, sp.Ranks)
	}
	if sp.Ranks > maxRanks {
		return fmt.Errorf("jobsvc: ranks %d exceeds the per-job limit %d", sp.Ranks, maxRanks)
	}
	if sp.WorkRep < 0 {
		return fmt.Errorf("jobsvc: negative work_rep %d", sp.WorkRep)
	}
	if sp.CheckEvery < 0 {
		return fmt.Errorf("jobsvc: negative check_every %d", sp.CheckEvery)
	}
	if sp.ComputeCost < 0 {
		return fmt.Errorf("jobsvc: negative compute cost %v", sp.ComputeCost)
	}
	if sp.Timeout < 0 {
		return fmt.Errorf("jobsvc: negative timeout %v", sp.Timeout)
	}
	if sp.Kernel != "" {
		if _, err := solver.KernelByName(sp.Kernel); err != nil {
			return fmt.Errorf("jobsvc: %w", err)
		}
	}
	if _, err := order.ByName(sp.Order); err != nil {
		return fmt.Errorf("jobsvc: %w", err)
	}
	if sp.Checkpoint != nil {
		if sp.Checkpoint.DetectTimeout < 0 {
			return fmt.Errorf("jobsvc: negative checkpoint detect timeout %v", sp.Checkpoint.DetectTimeout)
		}
		for _, k := range sp.Checkpoint.Kills {
			if k.Rank < 0 || k.Rank >= sp.Ranks {
				return fmt.Errorf("jobsvc: kill names rank %d of the %d requested", k.Rank, sp.Ranks)
			}
			if k.Iter < 0 {
				return fmt.Errorf("jobsvc: kill at negative iteration %d", k.Iter)
			}
		}
	}
	return nil
}

// sessionConfig maps the spec onto a session running on the job's
// sub-world. Worlds larger than one rank run elastic so the scheduler
// can resize them mid-run.
func (sp Spec) sessionConfig(world *comm.World) (session.Config, error) {
	cfg := session.Config{
		World:       world,
		OrderName:   sp.Order,
		CheckEvery:  sp.CheckEvery,
		WorkRep:     sp.WorkRep,
		ComputeCost: sp.ComputeCost,
		Elastic:     world.Size() > 1,
	}
	if sp.Kernel != "" {
		k, err := solver.KernelByName(sp.Kernel)
		if err != nil {
			return session.Config{}, err
		}
		cfg.Kernel = k
	}
	if sp.Overlap {
		cfg.Pipeline = 1
	}
	if sp.Balance {
		cfg.Balancer = &loadbal.Config{}
	}
	if sp.Checkpoint != nil {
		// The scheduler may have granted fewer ranks than requested;
		// kills naming sub-ranks beyond the grant are dropped — the
		// rank they would crash never existed.
		ck := *sp.Checkpoint
		ck.Kills = nil
		for _, k := range sp.Checkpoint.Kills {
			if k.Rank < world.Size() {
				ck.Kills = append(ck.Kills, k)
			}
		}
		cfg.Checkpoint = &ck
	}
	return cfg, nil
}
