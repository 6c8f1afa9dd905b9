// Package session is the one-call orchestration layer of the STANCE
// reproduction: it owns the wiring the paper's runtime library absorbs
// on behalf of applications — build a world, transform and partition
// the graph (Phase A), run the inspector (Phase B), then drive the
// iterate → measure → balance-check → remap loop (Phases C and D) —
// so callers go from a mesh to a finished run in two calls instead of
// hand-wiring world, runtime, solver and balancer on every rank.
//
// When the environment takes workstations away and gives them back
// (availability outages, or an explicit Resize), the session also runs
// the elastic membership protocol (Phase E, internal/elastic): at
// check boundaries the coordinator shrinks or grows the active rank
// set, data migrates onto the survivors, and parked ranks block
// cheaply until re-admitted.
//
// There is one driver. Every session gives every rank a membership
// controller and runs the same loop; at a check boundary the steps are
// always round → take: one control round to rank 0 and back (reports
// in when Checkpoint or a Balancer is on, one verdict out when
// Checkpoint, Elastic or outages, or a Balancer is on), then the checkpoint (Checkpoint). A fixed-membership session is
// the same loop with the round off: every rank stays active, the
// runtimes bind on the world endpoints themselves, and a boundary
// without a balancer sends nothing.
//
// The facade package re-exports this as stance.NewSession with
// functional options; internal callers (the bench harness) use the
// Config struct directly.
package session

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"stance/internal/ckpt"
	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/elastic"
	"stance/internal/graph"
	"stance/internal/hetero"
	"stance/internal/loadbal"
	"stance/internal/metrics"
	"stance/internal/order"
	"stance/internal/solver"
	"stance/internal/vtime"
)

// Config parameterizes a session. The zero value runs the identity
// ordering on one in-process rank with a free network and no load
// balancing.
type Config struct {
	// Procs is the number of SPMD ranks (workstations).
	Procs int
	// World, when non-nil, runs the session on a caller-provided world
	// instead of opening a fresh one — the stanced job service carves
	// per-job sub-worlds out of one shared rank pool (comm.WrapWorld
	// over Comm.Sub endpoints) and hands each job's session its slice.
	// Procs must equal World.Size() (or be zero, which adopts it), and
	// Transport, Net and Groups must be zero: the adopted world's
	// transport is already built, with its own model, clock and
	// topology. Close leaves an adopted world open: the provider owns
	// its lifecycle.
	World *comm.World
	// Transport names a registered comm transport ("" means "inproc").
	Transport string
	// Net describes the network — model, clock, topology, inter-group
	// model and wire tuning, documented on comm.TransportOptions — and
	// goes to comm.Open unchanged, with Groups resolved into
	// Net.Topology. The zero value is a free network on the real clock.
	// The session measures every duration in its RunReport, and the
	// balancer decides, on its world's clock: a vtime.Sim runs the
	// whole session in deterministic virtual time (in-process transport
	// only). A topology (the paper's nonuniform network: node groups
	// joined by a slower link priced by InterModel) also drives the
	// hierarchy-aware cut; it must cover exactly Procs ranks.
	Net comm.TransportOptions
	// Groups is the convenience form of Net.Topology: split the Procs
	// ranks into this many contiguous, near-equal node groups. 0 means
	// flat; cannot be combined with an explicit Net.Topology.
	Groups int
	// FlatCut keeps hierarchical pricing but cuts the partition flat,
	// ignoring group boundaries — the control arm for measuring what
	// the hierarchy-aware cut is worth.
	FlatCut bool
	// ComputeCost, when positive, virtualizes the solver's compute:
	// each element charges ComputeCost × WorkRep × WorkFactor to the
	// clock per iteration instead of spinning the kernel that many
	// times. Numerics are unchanged (the kernel still sweeps once).
	// This is how heterogeneity is injected under a simulated clock —
	// as exact virtual cost instead of real work.
	ComputeCost time.Duration
	// Order is the Phase A locality transformation (nil falls back to
	// OrderName, then to identity).
	Order order.Func
	// OrderName resolves an ordering by registry name ("rcb",
	// "hilbert", ...) when Order is nil.
	OrderName string
	// Weights are the initial relative processor capabilities (nil
	// means uniform).
	Weights []float64
	// VertexWeights are per-vertex computational weights in original
	// vertex numbering (nil means unit weights).
	VertexWeights []float64
	// Env simulates a nonuniform/adaptive cluster (nil means uniform,
	// unloaded). Availability outages in the environment enable the
	// elastic membership protocol.
	Env *hetero.Env
	// Outages are additional availability windows merged into Env (a
	// uniform environment is synthesized when Env is nil). Any outage
	// enables elastic membership.
	Outages []hetero.Outage
	// Elastic enables the membership protocol even without outages, so
	// Session.Resize can shrink and grow the active set explicitly. It
	// is the only thing that buys Resize, and it is not free: the
	// runtimes bind on a sub-world of the active set (rank translation
	// on every message), and every check boundary carries the
	// coordinator's verdict — one multicast and Procs+1 small
	// allocations — whether or not membership changes. Leave it off for
	// a run whose ranks never come or go.
	Elastic bool
	// WorkRep is the kernel work amplification (0 means 1; negative is
	// an error): an iteration sweeps each element WorkRep × WorkFactor
	// times — never less than once, the pass that computes the result —
	// which is the quantity ComputeCost charges.
	WorkRep int
	// Kernel is the solver's compute body (nil means the built-in
	// Figure 8 kernel).
	Kernel solver.Kernel
	// Pipeline is the executor depth: how far a field's ghost exchange
	// may run ahead of the sweep that consumes it. 0 is the paper's
	// synchronous phase (exchange, then sweep). 1 posts every field's
	// exchange at the top of the iteration and computes the interior
	// elements while the messages are in flight, then drains the
	// arrivals and computes the boundary strip. 2 additionally posts a
	// field's next-iteration exchange as soon as its update completes,
	// so flights span iteration boundaries. Results are bit-for-bit
	// identical at every depth; RunReport.Exec.Overlapped, .Pipelined
	// and .Idle report how much latency was hidden.
	Pipeline int
	// Fields is the number of independent solution fields the solver
	// advances per iteration (0 means 1). Extra fields give depths >= 1
	// independent exchanges to keep in flight; field 0 is the solution
	// vector Result returns.
	Fields int
	// Balancer enables Phase D adaptive load balancing (nil disables
	// it). A zero Horizon defaults to CheckEvery.
	Balancer *loadbal.Config
	// CheckEvery is the number of iterations between balance checks
	// (0 means 10, the paper's protocol; negative is an error).
	// Membership transitions happen
	// only at these boundaries, so it is also the granularity at which
	// availability changes take effect.
	CheckEvery int
	// OnCheck, if non-nil, is called on rank 0 immediately after each
	// balance check, giving long runs live feedback instead of waiting
	// for the RunReport. It runs inside the SPMD section; keep it
	// cheap and do not call back into the session.
	OnCheck func(CheckEvent)
	// OnMembership, if non-nil, is called on rank 0 immediately after
	// each committed membership transition. Same rules as OnCheck.
	OnMembership func(MembershipEvent)
	// Checkpoint enables crash-stop fault tolerance (internal/ckpt):
	// buddy checkpoints at every check boundary, failure detection by
	// the boundary round's receive deadline, and survivor-side
	// restart from the last checkpoint. It implies the elastic path
	// (recovery is a membership transition). The DetectTimeout must
	// exceed the compute skew between ranks within one check segment,
	// or a slow rank is mistaken for a dead one.
	Checkpoint *ckpt.Config
}

// rankState is one rank's slice of the session.
type rankState struct {
	rt  *core.Runtime
	sol *solver.Solver
	bal *loadbal.Balancer
	// window is the rank's most recent measurement window, kept so a
	// check deferred across a Run boundary still has a rate estimate.
	window solver.Timings
	// fieldBufs is persistent scratch for the checkpoint path's
	// per-field data views.
	fieldBufs [][]float64
}

// Session owns a world and the per-rank runtime/solver/balancer stack
// built on it. State persists across Run calls: iterations, layout and
// vector values continue where the previous Run stopped.
type Session struct {
	cfg   Config
	ctx   context.Context
	clock vtime.Clock
	g     *graph.Graph
	world *comm.World
	// ownWorld marks a world the session opened itself (and therefore
	// closes); an adopted Config.World stays open after Close.
	ownWorld bool
	// closed is set by Close. The rank states stay: Resize is safe to
	// call concurrently with Run and Close, and reads the flag alone.
	closed atomic.Bool
	ranks  []*rankState
	// elastic marks a session whose membership can change (Config.Elastic,
	// availability outages or checkpoints). ctls and subs are per-world-
	// rank and every session has them: the rank's membership controller
	// and its endpoint in the world its runtime is bound on — the world
	// endpoint itself on a fixed session, the rank's endpoint in the
	// current active sub-world on an elastic one (nil while parked).
	elastic bool
	ctls    []*elastic.Controller
	subs    []*comm.Comm
	// pendingBoundary records that the previous Run ended on a check
	// boundary, which was skipped (a remap there could not pay off
	// within that Run); the next Run opens with it, so a session driven
	// by repeated short Runs balances and tracks availability at the
	// same iterations a single long Run would.
	pendingBoundary bool
	// broken marks a session whose Run failed partway: ranks may have
	// stopped at different iterations, so any further collective would
	// misalign and deadlock. Only Close remains usable.
	broken bool
	// Crash-stop state (nil without Config.Checkpoint): each rank's
	// checkpoint store and the per-rank killed flags (written only by
	// the rank's own SPMD goroutine when its injected kill fires).
	cks    []*ckpt.Store
	killed []bool
}

// Validate reports the first rule the configuration breaks, or nil,
// and changes nothing. It is the session's whole rule set: New calls
// it first, and front ends that map their input onto a Config call it
// instead of checking the same fields themselves. Zero means the
// default for every count and duration; a negative one is an error.
func (c Config) Validate() error {
	procs := c.Procs
	if c.World != nil && procs == 0 {
		procs = c.World.Size()
	}
	b, ck := c.Balancer, c.Checkpoint
	switch {
	case c.World != nil && (procs != c.World.Size() || c.Transport != "" || c.Net != (comm.TransportOptions{}) || c.Groups != 0):
		return fmt.Errorf("session: an adopted World (%d ranks) takes Procs 0 or %[1]d, got %d, and no Transport, Net or Groups",
			c.World.Size(), procs)
	case procs <= 0:
		return fmt.Errorf("session: world size must be positive, got %d", procs)
	case c.Groups < 0 || c.Groups > procs:
		return fmt.Errorf("session: %d groups over %d ranks, want 0 (flat) to %d", c.Groups, procs, procs)
	case c.Groups != 0 && c.Net.Topology != nil:
		return fmt.Errorf("session: Groups conflicts with an explicit Net.Topology — set one or the other")
	case c.Env != nil && c.Env.P() != procs:
		return fmt.Errorf("session: environment has %d workstations, world has %d", c.Env.P(), procs)
	case c.Weights != nil && len(c.Weights) != procs:
		return fmt.Errorf("session: %d weights for %d ranks", len(c.Weights), procs)
	case c.WorkRep < 0:
		return fmt.Errorf("session: negative work amplification %d", c.WorkRep)
	case c.CheckEvery < 0:
		return fmt.Errorf("session: negative check interval %d", c.CheckEvery)
	case c.Pipeline < 0:
		return fmt.Errorf("session: negative pipeline depth %d", c.Pipeline)
	case c.Fields < 0:
		return fmt.Errorf("session: negative field count %d", c.Fields)
	case c.ComputeCost < 0:
		return fmt.Errorf("session: negative compute cost %v", c.ComputeCost)
	case b != nil && (b.Horizon < 0 || !(b.SafetyFactor >= 0) || math.IsInf(b.SafetyFactor, 1)):
		return fmt.Errorf("session: balancer horizon %d, safety factor %g; want both finite, >= 0", b.Horizon, b.SafetyFactor)
	case ck != nil && ck.DetectTimeout < 0:
		return fmt.Errorf("session: negative checkpoint detect timeout %v", ck.DetectTimeout)
	}
	net := c.Net
	if c.Groups != 0 {
		net.Topology, _ = comm.ContiguousGroups(procs, c.Groups) // in range: checked above
	}
	if err := comm.CheckOpen(c.Transport, procs, net); err != nil {
		return fmt.Errorf("session: %w", err)
	}
	if c.Order == nil && c.OrderName != "" {
		if _, err := order.ByName(c.OrderName); err != nil {
			return fmt.Errorf("session: %w", err)
		}
	}
	if env := c.env(procs); env != nil {
		if err := env.Validate(); err != nil {
			return err
		}
	}
	if ck != nil {
		for _, k := range ck.Kills {
			if k.Rank < 0 || k.Rank >= procs || k.Iter < 0 {
				return fmt.Errorf("session: kill at rank %d, iteration %d; want rank < %d, iteration >= 0", k.Rank, k.Iter, procs)
			}
		}
	}
	return nil
}

// env is the environment the session runs in: Env with Outages merged
// into a copy (a uniform one when Env is nil), so the caller's Env is
// never edited.
func (c Config) env(procs int) *hetero.Env {
	if len(c.Outages) == 0 {
		return c.Env
	}
	env := hetero.Uniform(procs)
	if c.Env != nil {
		env = c.Env.Clone()
	}
	env.Outages = append(env.Outages, c.Outages...)
	return env
}

// withDefaults resolves what a valid configuration leaves at zero or
// names indirectly: Procs from an adopted World, Groups into
// Net.Topology, OrderName into Order, Outages into Env, CheckEvery 10,
// WorkRep and Fields 1, the balancer's Horizon CheckEvery and the
// checkpoint DetectTimeout 50ms (on copies, never the caller's).
func (c Config) withDefaults() Config {
	if c.World != nil && c.Procs == 0 {
		c.Procs = c.World.Size()
	}
	if c.Groups != 0 {
		// Validate checked 0 < Groups <= Procs, the only failures.
		c.Net.Topology, _ = comm.ContiguousGroups(c.Procs, c.Groups)
	}
	if c.Order == nil && c.OrderName != "" {
		c.Order, _ = order.ByName(c.OrderName) // Validate resolved it
	}
	c.Env = c.env(c.Procs)
	if c.CheckEvery == 0 {
		c.CheckEvery = 10
	}
	if c.WorkRep == 0 {
		c.WorkRep = 1
	}
	if c.Fields == 0 {
		c.Fields = 1
	}
	if b := c.Balancer; b != nil && b.Horizon == 0 {
		resolved := *b
		resolved.Horizon = c.CheckEvery
		c.Balancer = &resolved
	}
	if ck := c.Checkpoint; ck != nil && ck.DetectTimeout == 0 {
		resolved := *ck
		resolved.DetectTimeout = 50 * time.Millisecond
		c.Checkpoint = &resolved
	}
	return c
}

// New builds a session collectively: opens the world on the configured
// transport and constructs the runtime, solver and (optionally)
// balancer on every rank. ctx governs the whole session: cancelling it
// unblocks any pending communication with ctx.Err(). A configuration
// Validate rejects is returned as Validate's error.
func New(ctx context.Context, g *graph.Graph, cfg Config) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g == nil {
		return nil, fmt.Errorf("session: nil graph")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	world := cfg.World
	ownWorld := world == nil
	if ownWorld {
		var err error
		if world, err = comm.Open(cfg.Transport, cfg.Procs, cfg.Net); err != nil {
			return nil, err
		}
	}
	s := &Session{
		cfg:      cfg,
		ctx:      ctx,
		clock:    world.Comm(0).Clock(),
		g:        g,
		world:    world,
		ownWorld: ownWorld,
		ranks:    make([]*rankState, cfg.Procs),
		elastic:  cfg.Elastic || (cfg.Env != nil && cfg.Env.Elastic()) || cfg.Checkpoint != nil,
		ctls:     make([]*elastic.Controller, cfg.Procs),
		subs:     make([]*comm.Comm, cfg.Procs),
	}
	if cfg.Checkpoint != nil {
		s.cks = make([]*ckpt.Store, cfg.Procs)
		s.killed = make([]bool, cfg.Procs)
	}
	// Phase A runs once, here, and every rank shares its result
	// read-only. The session itself keeps no reference: the ranks'
	// runtimes do, so Close releases it with them.
	cc := core.Config{
		Order:         cfg.Order,
		Weights:       cfg.Weights,
		VertexWeights: cfg.VertexWeights,
	}
	if cfg.Net.Topology != nil && !cfg.FlatCut {
		cc.Groups = cfg.Net.Topology.GroupOfSlice()
	}
	var err error
	if cc.Transform, err = core.NewTransform(g, cc); err == nil {
		err = world.SPMD(ctx, func(c *comm.Comm) error { return s.buildRank(c, cc) })
	}
	if err != nil {
		if ownWorld {
			world.Close()
		}
		return nil, err
	}
	return s, nil
}

// buildRank constructs one rank's stack: every rank of the world holds
// a membership controller and the locality transform (so a parked rank
// can be admitted later), but only the initial active set binds
// runtimes and everyone else parks. A fixed session's active set is
// the whole world and never changes, so it binds on the world endpoint
// itself — no sub-world, no rank translation on the hot path; an
// elastic one binds on the sub-world of its active set.
func (s *Session) buildRank(c *comm.Comm, cc core.Config) error {
	active := s.initialActive()
	ctl, err := elastic.NewController(c, active)
	if err != nil {
		return err
	}
	s.ctls[c.Rank()] = ctl
	if s.ckptOn() {
		s.cks[c.Rank()] = ckpt.NewStore(c, s.cfg.Fields)
	}
	rt, err := core.NewParked(c, s.g, cc)
	if err != nil {
		return err
	}
	if ctl.ActiveHere() {
		sub := c
		if s.elastic {
			if sub, err = c.Sub(active); err != nil {
				return err
			}
		}
		layout, err := rt.CutLayout(s.activeWeights(active))
		if err != nil {
			return err
		}
		if err := rt.Bind(sub, layout); err != nil {
			return err
		}
		s.subs[c.Rank()] = sub
	}
	sol, err := s.newSolver(rt)
	if err != nil {
		return err
	}
	st := &rankState{rt: rt, sol: sol}
	if ctl.ActiveHere() {
		if err := s.armBalancer(st); err != nil {
			return err
		}
	}
	s.ranks[c.Rank()] = st
	return nil
}

// initialActive returns the active set at iteration 0.
func (s *Session) initialActive() []int {
	if s.cfg.Env != nil && s.cfg.Env.Elastic() {
		return s.cfg.Env.ActiveSet(0)
	}
	all := make([]int, s.cfg.Procs)
	for i := range all {
		all[i] = i
	}
	return all
}

// activeWeights restricts the configured capability weights to an
// active set (uniform when none are configured).
func (s *Session) activeWeights(active []int) []float64 {
	w := make([]float64, len(active))
	for i, r := range active {
		if s.cfg.Weights != nil {
			w[i] = s.cfg.Weights[r]
		} else {
			w[i] = 1
		}
	}
	return w
}

// newSolver builds a rank's solver with the configured kernel, field
// count and executor depth.
func (s *Session) newSolver(rt *core.Runtime) (*solver.Solver, error) {
	sol, err := solver.New(rt, s.cfg.Env, s.cfg.WorkRep)
	if err != nil {
		return nil, err
	}
	if s.cfg.Kernel != nil {
		if err := sol.SetKernel(s.cfg.Kernel); err != nil {
			return nil, err
		}
	}
	// A fresh solver rejects only a field count below 1 and a negative
	// depth, which Validate and the defaults step rule out.
	_ = sol.SetFields(s.cfg.Fields)
	_ = sol.SetPipeline(s.cfg.Pipeline)
	sol.SetVirtualCompute(s.cfg.ComputeCost)
	return sol, nil
}

// newBalancer builds a rank's balancer from the configured prototype.
// The estimator is stateful and per-rank; the configured one is only
// a prototype, or the ranks would race on it.
func (s *Session) newBalancer(rt *core.Runtime) (*loadbal.Balancer, error) {
	bc := *s.cfg.Balancer
	bc.Estimator = bc.Estimator.Clone()
	return loadbal.New(rt, bc)
}

// armBalancer leaves an active rank with a balancer that has no
// measurement history (a no-op without Config.Balancer): a fresh one at
// construction and on admission, a Reset after a membership transition
// or a recovery — both are forced re-cuts, and history measured on the
// old world would poison the estimator.
func (s *Session) armBalancer(rk *rankState) (err error) {
	if s.cfg.Balancer == nil {
		return nil
	}
	if rk.bal == nil {
		rk.bal, err = s.newBalancer(rk.rt)
		return err
	}
	rk.bal.Reset()
	return nil
}

// RankUsage is one rank's accumulated measurements over a Run: the
// solver's timing window type, summed across the Run's check windows.
type RankUsage = solver.Timings

// CheckEvent records one load-balance check (remapping or not) with
// rank 0's view of the collective decision.
type CheckEvent struct {
	// Iter is the global iteration count at which the check ran.
	Iter int `json:"iter"`
	// Decision is the controller's verdict, including the predicted
	// phase times, the modeled remap cost and the measured check/remap
	// durations on rank 0.
	Decision loadbal.Decision `json:"decision"`
}

// MembershipEvent records one committed membership transition: the new
// epoch, who left and joined, and what the migration moved.
type MembershipEvent = elastic.Event

// RunReport is the consolidated result of one Run: wall time, per-rank
// timings, every balance check and membership transition, and the
// messages and bytes the world moved during the run.
//
// RunReport and every nested event/timing struct marshal to JSON with
// stable snake_case field names — the wire format the stanced job
// service serves on /v1/jobs and /metrics. Durations are integer
// nanoseconds (fields suffixed _ns); modeled times are float seconds
// (suffixed _s). The round trip is loss-free: unmarshaling the JSON
// reproduces the report exactly.
type RunReport struct {
	// Iters is the number of iterations this Run executed.
	Iters int `json:"iters"`
	// Wall is the Run's own duration on the session clock: from just
	// before its SPMD section starts to just after the section joins,
	// so the Run-start boundary round (and any failure detection it
	// waits out) falls inside it. On a simulated clock the end is the
	// last rank's finish.
	Wall time.Duration `json:"wall_ns"`
	// Ranks holds each rank's accumulated compute/comm time and items,
	// indexed by world rank (parked ranks accumulate nothing).
	Ranks []RankUsage `json:"ranks"`
	// Checks are the load-balance checks in iteration order (empty
	// without a balancer).
	Checks []CheckEvent `json:"checks,omitempty"`
	// Members are the membership transitions in iteration order (empty
	// on fixed-membership sessions), each with its migration byte
	// count.
	Members []MembershipEvent `json:"members,omitempty"`
	// Recoveries are the crash-stop recovery epochs in iteration order
	// (empty without Config.Checkpoint or when nothing died): who was
	// declared dead, the detection latency, the checkpoint rolled back
	// to and how many iterations were replayed.
	Recoveries []ckpt.RecoveryEvent `json:"recoveries,omitempty"`
	// Msgs and Bytes count the messages and payload bytes sent by all
	// ranks during the run.
	Msgs  int64 `json:"msgs"`
	Bytes int64 `json:"bytes"`
	// InterMsgs and InterBytes are the subset of Msgs/Bytes that
	// crossed a group boundary on a two-level world (Config.Net.Topology) —
	// the traffic the slow inter-group link carried. Zero on flat
	// worlds and adopted worlds.
	InterMsgs  int64 `json:"inter_msgs,omitempty"`
	InterBytes int64 `json:"inter_bytes,omitempty"`
	// Exec is the traffic the executor data path itself generated
	// during the run (Exchange/ScatterAdd operations, messages and
	// bytes summed over ranks), counted per operation by the runtimes.
	// Unlike Msgs/Bytes it excludes membership, checkpoint, balancer
	// and remap traffic, so it is the pure schedule-replay cost.
	Exec core.ExecStats `json:"exec"`
	// Transport is the wire-counter delta over the run (framed writes,
	// wire bytes after batching and compression, missed heartbeats,
	// backpressure stalls), summed over ranks. nil when the transport
	// keeps no counters (inproc) or the world is adopted — a shared
	// pool's counters mix every tenant's traffic, so a per-job delta
	// would lie.
	Transport *comm.TransportStats `json:"transport,omitempty"`
}

// Remaps returns the subset of checks that actually remapped.
func (r *RunReport) Remaps() []CheckEvent {
	var out []CheckEvent
	for _, ev := range r.Checks {
		if ev.Decision.Remapped {
			out = append(out, ev)
		}
	}
	return out
}

// Efficiency derives the paper's Section 4 nonuniform-environment
// efficiency from the measured per-rank rates: a rank computing rate
// seconds/item alone would need rate * vertices * iters for the whole
// run. It fails if some rank measured no items (in particular, ranks
// parked for the whole run).
func (r *RunReport) Efficiency(vertices int) (float64, error) {
	seq := make([]float64, 0, len(r.Ranks))
	for rank, u := range r.Ranks {
		if u.Items == 0 {
			return 0, fmt.Errorf("session: rank %d measured no items", rank)
		}
		seq = append(seq, u.RatePerItem()*float64(vertices)*float64(r.Iters))
	}
	return metrics.EfficiencyStatic(r.Wall.Seconds(), seq)
}

// Run executes iters iterations of the parallel loop on every rank,
// owning the paper's per-phase protocol: iterate, accumulate
// measurements, check the balancer every CheckEvery iterations, and
// remap when the controller says it is profitable. On an elastic
// session the check boundaries double as membership boundaries: the
// coordinator compares the active set against the environment's
// availability (or a pending Resize request) and drives the epoch
// transition when they differ. A check falling on the run's final
// iteration is deferred — its remap could not pay off within this Run
// — and performed at the start of the next Run if the session
// continues, so repeated short Runs still balance. It returns the
// consolidated report. Run may be called repeatedly; iteration counts,
// membership and data continue from the previous call. A Run that
// fails partway leaves ranks at divergent iterations, so it marks the
// session unusable: further Run/Result calls fail and only Close
// remains.
func (s *Session) Run(iters int) (*RunReport, error) {
	if err := s.usable(); err != nil {
		return nil, err
	}
	if iters < 0 {
		return nil, fmt.Errorf("session: negative iteration count %d", iters)
	}
	rep := &RunReport{Iters: iters, Ranks: make([]RankUsage, s.cfg.Procs)}
	if iters == 0 {
		return rep, nil
	}
	msgs0, bytes0 := s.world.Stats()
	var interMsgs0, interBytes0 int64
	if s.ownWorld {
		interMsgs0, interBytes0 = s.world.InterGroupStats()
	}
	var trBefore comm.TransportStats
	trOK := false
	if s.ownWorld {
		trBefore, trOK = s.world.TransportStats()
	}
	execBefore := make([]core.ExecStats, len(s.ranks))
	for i, rk := range s.ranks {
		execBefore[i] = rk.rt.ExecStats()
	}
	// The solvers' own counters are the source of truth for the global
	// iteration count (they advance even on a Run that errors partway).
	last := s.Iter() + iters
	pending := s.pendingBoundary
	s.pendingBoundary = false
	start := s.clock.Now()
	err := s.world.SPMD(s.ctx, func(c *comm.Comm) error {
		err := s.run(c, rep, last, pending)
		if err != nil && s.ckptOn() && errors.Is(err, comm.ErrKilled) {
			// The rank's transport endpoint was crash-injected
			// (comm.KillEndpoint): a crash-stop death, not a program
			// error. The rank goes silent — exactly like an injected
			// kill — and the survivors' detection and recovery carry
			// the run.
			s.killed[c.Rank()] = true
			return nil
		}
		return err
	})
	if err != nil {
		s.broken = true
		return nil, err
	}
	// On a simulated clock nothing advances once the last rank is done,
	// so this is that rank's finish.
	rep.Wall = s.clock.Now().Sub(start)
	s.pendingBoundary = last%s.cfg.CheckEvery == 0
	msgs1, bytes1 := s.world.Stats()
	rep.Msgs, rep.Bytes = msgs1-msgs0, bytes1-bytes0
	if s.ownWorld {
		interMsgs1, interBytes1 := s.world.InterGroupStats()
		rep.InterMsgs, rep.InterBytes = interMsgs1-interMsgs0, interBytes1-interBytes0
	}
	if trOK {
		trAfter, _ := s.world.TransportStats()
		d := trAfter.Sub(trBefore)
		rep.Transport = &d
	}
	for i, rk := range s.ranks {
		rep.Exec.Add(rk.rt.ExecStats().Sub(execBefore[i]))
	}
	return rep, nil
}

// run is one rank's Run body. Active ranks iterate in segments between
// check boundaries; parked ranks block in Park until admitted or the
// run ends; retiring ranks migrate their data away and join the parked
// set. A fixed-membership session is the case where every rank is
// active throughout, so Park is never reached and nobody is released.
func (s *Session) run(c *comm.Comm, rep *RunReport, last int, pending bool) error {
	me := c.Rank()
	rk := s.ranks[me]
	ctl := s.ctls[me]
	usage := &rep.Ranks[me]
	// The per-iteration callback only polls cancellation: a rank that
	// never blocks (a one-rank world has no ghosts) must still notice
	// it. It reads Done without the context's lock, which every rank
	// shares, and Err only once that is closed.
	done := s.ctx.Done()
	cancelled := func(int) error {
		select {
		case <-done:
			return s.ctx.Err()
		default:
			return nil
		}
	}
	if s.killed != nil && s.killed[me] {
		// A rank whose injected kill fired in an earlier Run stays
		// silent forever; its own controller still lists it as active
		// (it never saw the recovery verdict), so it must not fall
		// into the active path below.
		return nil
	}

	if ctl.ActiveHere() {
		// The Run start is a boundary round: ranks that died at the end
		// of the previous Run (or whose kill names iteration 0) are
		// detected before any survivor exchanges with them, and a
		// boundary that fell on the previous Run's final iteration was
		// deferred and is performed now, on the window that Run left.
		// With nothing deferred only the checkpoint round and take run,
		// under the Run-start layout and membership. A rank retired
		// here parks at the top of the loop; an admitted rank wakes
		// inside its Park call below.
		if died, err := s.round(c, rep, rk.sol.Iter(), rk.window, pending); died || err != nil {
			return err
		}
	}
	for {
		if !ctl.ActiveHere() {
			prop, err := ctl.Park()
			if err != nil {
				return err
			}
			if prop == nil {
				// Run ended while parked; stay parked for the next Run.
				return nil
			}
			if err := s.commit(me, rep, prop, nil); err != nil {
				return err
			}
			continue
		}
		iter := rk.sol.Iter()
		if iter >= last {
			break
		}
		// Iterate in segments between check boundaries: a boundary may
		// change the layout, and the pipelined solver keeps op handles in
		// flight inside a Run call, so layout changes must fall between
		// Run calls (every Run returns with the pipeline drained).
		next := iter + s.cfg.CheckEvery - iter%s.cfg.CheckEvery
		if next > last {
			next = last
		}
		if err := rk.sol.Run(next-iter, cancelled); err != nil {
			return err
		}
		if next == last {
			// A boundary on the final iteration is deferred to the next
			// Run (its remap could not pay off within this one).
			break
		}
		tm := rk.sol.TakeTimings()
		usage.Add(tm)
		rk.window = tm
		// The round runs after the segment's timings are recorded, so
		// a dying rank's last segment is still accounted.
		if died, err := s.round(c, rep, next, tm, true); died || err != nil {
			return err
		}
	}
	// Run end: only reached by ranks active in the final epoch.
	tm := rk.sol.TakeTimings()
	usage.Add(tm)
	rk.window = tm
	if me == 0 {
		// Dead ranks get no run-end verdict: nobody would ever consume
		// it, and on a shared pool (jobsvc) the stale message could
		// leak into a later tenant of the same rank.
		var dead []int
		if s.ckptOn() {
			dead = s.cks[me].Dead()
		}
		if err := ctl.ReleaseParked(dead); err != nil {
			return err
		}
	}
	return nil
}

// commit applies an agreed membership transition on one rank: drain,
// migrate, rebind (or park), then re-arm the balancer — a transition
// is a forced remap, so the balancer restarts with a clean measurement
// history and an admitted rank gets a fresh balancer.
func (s *Session) commit(me int, rep *RunReport, prop *elastic.Proposal, oldSub *comm.Comm) error {
	rk := s.ranks[me]
	ev, sub, err := s.ctls[me].Transition(prop, oldSub, rk.rt)
	if err != nil {
		return err
	}
	s.subs[me] = sub
	if sub == nil {
		// Retired: a parked rank contributes zero capability — it is
		// simply absent from the active world the balancer sees.
		rk.bal = nil
	} else {
		rk.sol.SetIter(prop.Iter)
		if err := s.armBalancer(rk); err != nil {
			return err
		}
	}
	if me == 0 {
		rep.Members = append(rep.Members, ev)
		if s.cfg.OnMembership != nil {
			s.cfg.OnMembership(ev)
		}
	}
	// Every committed transition re-checkpoints under the new
	// membership and layout — survivors here, admitted ranks in their
	// Park-side commit — so the buddy ring always matches the world
	// the next segment runs on. Retired ranks are out of the ring.
	if s.ckptOn() && sub != nil {
		if err := s.ckptTake(me, prop.Iter); err != nil {
			return err
		}
	}
	return nil
}

// Resize requests an explicit membership change to the given world
// ranks (ascending, containing rank 0 — the coordinator cannot
// retire), applied at the next check boundary of a running or future
// Run. Only valid on elastic sessions (Config.Elastic, or any
// availability outage). With availability windows also configured, the
// environment re-asserts its own active set at the following boundary.
// Safe to call concurrently with Run.
func (s *Session) Resize(active []int) error {
	if s.closed.Load() {
		return fmt.Errorf("session: closed")
	}
	if !s.elastic {
		return fmt.Errorf("session: Resize on a fixed-membership session (enable with Config.Elastic or availability outages)")
	}
	return s.ctls[0].RequestResize(active)
}

// Membership returns the current epoch number and active world ranks
// (rank 0's view). Fixed-membership sessions are permanently at epoch
// 0 with every rank active.
func (s *Session) Membership() (epoch int, active []int) {
	m := s.ctls[0].Membership()
	return m.Epoch, m.Active
}

// World returns the underlying world.
func (s *Session) World() *comm.World { return s.world }

// Graph returns the computational graph the session was built on.
func (s *Session) Graph() *graph.Graph { return s.g }

// Iter returns the number of completed iterations across all Runs
// (rank 0's count; ranks only diverge after a mid-run error).
func (s *Session) Iter() int {
	if s.closed.Load() {
		return 0
	}
	return s.ranks[0].sol.Iter()
}

// usable reports whether collective operations may still run.
func (s *Session) usable() error {
	if s.closed.Load() {
		return fmt.Errorf("session: closed")
	}
	if s.broken {
		return fmt.Errorf("session: unusable after a failed Run (ranks may have diverged); Close it")
	}
	return nil
}

// Runtime returns rank's runtime — the escape hatch for callers that
// need the low-level API alongside the driver. It returns nil on a
// closed session and panics on an out-of-range rank.
func (s *Session) Runtime(rank int) *core.Runtime {
	if s.closed.Load() {
		return nil
	}
	if rank < 0 || rank >= len(s.ranks) {
		panic(fmt.Sprintf("session: rank %d of %d", rank, len(s.ranks)))
	}
	return s.ranks[rank].rt
}

// Solver returns rank's solver, or nil on a closed session. It panics
// on an out-of-range rank.
func (s *Session) Solver(rank int) *solver.Solver {
	if s.closed.Load() {
		return nil
	}
	if rank < 0 || rank >= len(s.ranks) {
		panic(fmt.Sprintf("session: rank %d of %d", rank, len(s.ranks)))
	}
	return s.ranks[rank].sol
}

// Result gathers the solution vector on rank 0 in transformed-global
// order (the order the runtime partitions). Collective. On an elastic
// session the active sub-world gathers; parked ranks own nothing and
// contribute nothing.
func (s *Session) Result() ([]float64, error) {
	if err := s.usable(); err != nil {
		return nil, err
	}
	var out []float64
	err := s.world.SPMD(s.ctx, func(c *comm.Comm) error {
		if s.killed != nil && s.killed[c.Rank()] {
			// A killed rank's own controller still lists it as active;
			// it contributes nothing and must stay silent.
			return nil
		}
		if !s.ctls[c.Rank()].ActiveHere() {
			return nil
		}
		y, err := s.ranks[c.Rank()].sol.GatherResult(0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = y
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ResultByVertex is Result mapped back to the original vertex
// numbering: out[v] is vertex v's value.
func (s *Session) ResultByVertex() ([]float64, error) {
	vals, err := s.Result()
	if err != nil {
		return nil, err
	}
	return s.ranks[0].rt.Unpermute(vals)
}

// Close shuts the session's world down (a world adopted through
// Config.World stays open — its provider owns it). Pending operations
// fail; repeated Close calls are safe and return the first call's
// error.
func (s *Session) Close() error {
	s.closed.Store(true)
	if s.ownWorld && s.world != nil {
		return s.world.Close()
	}
	return nil
}
