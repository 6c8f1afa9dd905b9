package stance

import (
	"context"
	"time"

	"stance/internal/ckpt"
	"stance/internal/comm"
	"stance/internal/hetero"
	"stance/internal/session"
	"stance/internal/vtime"
)

// Session-layer types, re-exported from the internal orchestration
// package. A Session owns a World plus the per-rank runtime, solver and
// balancer stack, and its Run method drives the paper's per-phase
// iterate → measure → balance-check → remap protocol.
type (
	// Session is the one-call orchestration handle; see NewSession.
	Session = session.Session
	// SessionConfig is the resolved configuration functional options
	// build. Most callers never touch it directly.
	SessionConfig = session.Config
	// RunReport is the consolidated result of one Session.Run.
	RunReport = session.RunReport
	// CheckEvent is one load-balance check recorded in a RunReport.
	CheckEvent = session.CheckEvent
	// MembershipEvent is one committed membership transition recorded
	// in a RunReport: the new epoch, who left and joined, and the
	// migration byte count.
	MembershipEvent = session.MembershipEvent
	// CheckpointConfig enables crash-stop fault tolerance; see
	// WithCheckpoint.
	CheckpointConfig = ckpt.Config
	// Kill is one injected crash in a CheckpointConfig: the rank goes
	// permanently silent at the first boundary at or after the given
	// iteration.
	Kill = ckpt.Kill
	// RecoveryEvent is one completed crash recovery recorded in a
	// RunReport: who died, who survived, how far the survivors rolled
	// back and what detection and restoration cost.
	RecoveryEvent = ckpt.RecoveryEvent
	// Outage is an availability window during which a workstation
	// leaves the computation entirely; see WithAvailability.
	Outage = hetero.Outage
	// Trace is a piecewise-constant schedule of one workstation's
	// delivered capability — the adaptive environment as a time series;
	// a zero-capability step takes the workstation away entirely.
	Trace = hetero.Trace
	// TraceStep is one segment of a Trace.
	TraceStep = hetero.TraceStep
	// Clock is the runtime's time source; see WithClock.
	Clock = vtime.Clock
	// SimClock is the deterministic discrete-event clock. Build one
	// with NewSimClock and pass it to WithClock to run a session in
	// virtual time.
	SimClock = vtime.Sim
	// RankUsage is one rank's accumulated timings in a RunReport.
	RankUsage = session.RankUsage
	// World is a first-class SPMD world: endpoints plus shared
	// lifecycle, built from a registered transport. Session.World
	// returns the session's; SessionConfig.World adopts one.
	World = comm.World
	// Topology assigns every rank to a node group — the two-level
	// structure of a nonuniform network. See WithGroups and
	// WithTopology.
	Topology = comm.Topology
	// TransportOptions is the composable network configuration:
	// model, clock, topology, inter-group model and the wire tuning
	// (batching, compression, heartbeat liveness, outbox bounds, mesh
	// deadlines). The session options fill one.
	TransportOptions = comm.TransportOptions
	// TransportStats are the wire counters a socket transport
	// accumulates (framed writes, wire bytes, missed heartbeats,
	// backpressure stalls); RunReport.Transport carries the per-run
	// delta.
	TransportStats = comm.TransportStats
)

// ErrUnrecoverable marks a rank failure the checkpoint protocol cannot
// recover from (the coordinator died, or a rank and its checkpoint
// buddy died inside one detection window). Session.Run errors wrap it;
// test with errors.Is.
var ErrUnrecoverable = ckpt.ErrUnrecoverable

// Option configures NewSession.
type Option func(*session.Config)

// WithTransport selects a comm transport by name: "inproc" (the
// default), "tcp", or "hybrid" (in-process inside each node group, tcp
// between groups; it needs WithGroups or WithTopology).
func WithTransport(name string) Option {
	return func(c *session.Config) { c.Transport = name }
}

// WithNetworkModel sets the network cost model for modeled transports
// (the in-process transport; the TCP transport runs over real sockets
// and ignores it). The default is a free network; Ethernet(scale)
// reproduces the paper's 10 Mbit shared medium.
func WithNetworkModel(m *NetworkModel) Option {
	return func(c *session.Config) { c.Net.Model = m }
}

// WithTransportTuning tunes the wire transport the session opens:
// batching flush period and batch cap, per-batch compression codec,
// heartbeat interval and miss budget (transport-level failure
// detection feeding the boundary round), outbox high-water mark, and
// mesh dial/accept deadlines. Zero fields mean library defaults. Any of
// Model, Clock, Topology and InterModel that o leaves nil keeps the
// value set by WithNetworkModel, WithClock, WithTopology or
// WithInterModel, so the options may come in any order. The in-process
// transport has no wire and ignores the tuning.
//
//	s, err := stance.NewSession(ctx, g, 4,
//	    stance.WithTransport("tcp"),
//	    stance.WithTransportTuning(stance.TransportOptions{
//	        FlushPeriod:       200 * time.Microsecond,
//	        Compression:       "flate",
//	        HeartbeatInterval: 25 * time.Millisecond,
//	    }))
func WithTransportTuning(o TransportOptions) Option {
	return func(c *session.Config) {
		n := o // a copy: the Option may be applied to more than one config
		if n.Model == nil {
			n.Model = c.Net.Model
		}
		if n.Clock == nil {
			n.Clock = c.Net.Clock
		}
		if n.Topology == nil {
			n.Topology = c.Net.Topology
		}
		if n.InterModel == nil {
			n.InterModel = c.Net.InterModel
		}
		c.Net = n
	}
}

// WithGroups declares a two-level cluster: the session's ranks split
// into n contiguous, near-equal node groups joined by a slower shared
// link (the paper's Section 4 nonuniform network). Every
// hierarchy-aware layer engages: the transport prices and counts
// inter-group traffic separately (RunReport.InterMsgs/InterBytes), the
// partitioner cuts across group boundaries first and refines them to
// minimize slow-link traffic. A balance check's round crosses the slow
// link 2·(P − P/G) times: each far-group report in to rank 0, and the
// verdict back out to each far-group member. Combine with
// WithInterModel to make the inter-group link actually slower:
//
//	s, err := stance.NewSession(ctx, g, 8,
//	    stance.WithGroups(2),
//	    stance.WithNetworkModel(stance.Ethernet(1)),
//	    stance.WithInterModel(stance.Ethernet(10)))
func WithGroups(n int) Option {
	return func(c *session.Config) { c.Groups = n }
}

// WithTopology sets the rank → node-group assignment directly, for
// clusters whose groups are not equal contiguous blocks. Build one
// with NewTopology or ContiguousGroups. Mutually exclusive with
// WithGroups.
func WithTopology(t *Topology) Option {
	return func(c *session.Config) { c.Net.Topology = t }
}

// WithInterModel sets the cost model for messages crossing group
// boundaries — the knob that makes the network nonuniform. Requires
// WithGroups or WithTopology; without it inter-group traffic is priced
// on the ordinary network model like everything else.
func WithInterModel(m *NetworkModel) Option {
	return func(c *session.Config) { c.Net.InterModel = m }
}

// WithClock sets the session's time source. Everything temporal —
// network charges, delivery delays, solver and balancer measurement,
// RecvTimeout deadlines, the RunReport's durations — runs on it. Pass
// NewSimClock() to run the session in deterministic virtual time: an
// adaptive scenario that would take minutes of wall time finishes in
// milliseconds, and the same clock and configuration produce a
// byte-identical report every run. Virtual time requires the
// in-process transport; combine with WithVirtualCompute so compute
// costs virtual time instead of real work. The default is the real
// clock.
//
//	clk := stance.NewSimClock()
//	s, err := stance.NewSession(ctx, g, 4,
//	    stance.WithClock(clk),
//	    stance.WithVirtualCompute(10*time.Microsecond),
//	    stance.WithNetworkModel(&stance.NetworkModel{Delay: 5 * time.Millisecond}))
func WithClock(clk Clock) Option {
	return func(c *session.Config) { c.Net.Clock = clk }
}

// WithVirtualCompute virtualizes the solver's compute: each element
// charges perItem × WorkRep × WorkFactor to the session clock per
// iteration instead of spinning the kernel that many times. The
// numerical result is unchanged. On a simulated clock this makes
// heterogeneity an exact, instant quantity; on the real clock it
// emulates compute by sleeping.
func WithVirtualCompute(perItem time.Duration) Option {
	return func(c *session.Config) { c.ComputeCost = perItem }
}

// WithOrdering selects the Phase A locality transformation by name:
// "identity", "random", "rcb", "rib", "morton", "hilbert", "rcm" or
// "spectral". The default is identity.
func WithOrdering(name string) Option {
	return func(c *session.Config) { c.OrderName = name; c.Order = nil }
}

// WithOrderFunc sets the locality transformation directly (for example
// stance.RCB, or a custom order.Func).
func WithOrderFunc(f OrderFunc) Option {
	return func(c *session.Config) { c.Order = f; c.OrderName = "" }
}

// WithWeights sets the initial relative processor capabilities; the
// length must equal the world size. The default is uniform.
func WithWeights(w ...float64) Option {
	return func(c *session.Config) { c.Weights = w }
}

// WithVertexWeights sets per-vertex computational weights in original
// vertex numbering, so intervals balance total weight instead of
// vertex counts. A common choice is the vertex degree.
func WithVertexWeights(w []float64) Option {
	return func(c *session.Config) { c.VertexWeights = w }
}

// WithBalancer enables Phase D adaptive load balancing with the given
// configuration; Session.Run then checks every CheckEvery iterations
// and remaps when profitable. A zero Horizon defaults to the check
// interval.
func WithBalancer(cfg BalancerConfig) Option {
	return func(c *session.Config) { c.Balancer = &cfg }
}

// WithEnv simulates a nonuniform/adaptive cluster: per-rank speeds,
// competing loads and availability outages shape the run. Outages in
// the environment enable the elastic membership protocol. The default
// is uniform, unloaded and always available.
func WithEnv(env *Env) Option {
	return func(c *session.Config) { c.Env = env }
}

// WithAvailability adds availability windows during which workstations
// leave the computation entirely — the adaptive environment's "machine
// taken away and given back". Any outage enables the elastic
// membership protocol: at each check boundary the coordinator (rank 0,
// which cannot have outages) retires the ranks that went away —
// migrating their intervals onto the survivors and parking them — and
// re-admits ranks whose outage ended. The outages merge into the
// configured environment (a uniform one is synthesized if none is
// set).
func WithAvailability(outages ...Outage) Option {
	return func(c *session.Config) { c.Outages = append(c.Outages, outages...) }
}

// WithElastic enables the elastic membership protocol even without
// availability outages, so Session.Resize can shrink and grow the
// active rank set explicitly while the session runs. It is what buys
// Resize and it has a price — one verdict multicast per check boundary
// and a sub-world under the runtimes — so leave it off when the ranks
// never come or go.
func WithElastic() Option {
	return func(c *session.Config) { c.Elastic = true }
}

// WithCheckpoint enables crash-stop fault tolerance (which implies the
// elastic membership protocol). At every Run start and check boundary
// each active rank sends its boundary report to the coordinator, which
// collects them under cfg.DetectTimeout and multicasts one verdict (a
// zero DetectTimeout means 50ms; a negative one makes NewSession return
// an error). When all answer, every rank
// snapshots its vector intervals and solver iteration and mirrors the
// snapshot to its buddy (the next active rank in ring order). When a
// rank goes silent, the survivors re-cut its intervals, restore the
// last checkpoint — the dead rank's state replayed by its buddy — roll
// the solver back and continue; the final result is bit-identical to a
// run that never failed, and the RunReport records a RecoveryEvent. A
// failure that cannot be recovered (the coordinator died, or a rank
// and its buddy died together) fails the Run loudly with an error
// wrapping ErrUnrecoverable — never a hang. cfg.Kills injects
// deterministic crashes for testing:
//
//	s, err := stance.NewSession(ctx, g, 4,
//	    stance.WithClock(stance.NewSimClock()),
//	    stance.WithVirtualCompute(10*time.Microsecond),
//	    stance.WithCheckpoint(stance.CheckpointConfig{
//	        DetectTimeout: 50 * time.Millisecond,
//	        Kills:         []stance.Kill{{Rank: 2, Iter: 30}},
//	    }))
//	report, err := s.Run(60) // rank 2 dies at iteration 30; report.Recoveries has the story
func WithCheckpoint(cfg CheckpointConfig) Option {
	return func(c *session.Config) { c.Checkpoint = &cfg }
}

// WithOnMembership registers a callback invoked on rank 0 immediately
// after each committed membership transition (the consolidated
// RunReport still records every transition). The callback runs inside
// the SPMD section; keep it cheap and do not call back into the
// session.
func WithOnMembership(f func(MembershipEvent)) Option {
	return func(c *session.Config) { c.OnMembership = f }
}

// WithPipeline sets the executor depth: how far a field's ghost
// exchange may run ahead of the sweep that consumes it. Depth 0 (the
// default) is the paper's synchronous phase. Depth 1 posts every
// field's exchange at the top of the iteration, computes the interior
// elements — which reference no ghost value — while the messages are
// in flight, then drains the arrivals and computes the boundary strip.
// Depth 2 additionally posts a field's next exchange as soon as its
// update completes, so its flight time hides behind the other fields'
// compute across the iteration boundary. The numerical result is
// bit-for-bit identical at every depth. RunReport.Exec.Overlapped
// counts the split-phase operations, .Pipelined those issued while
// another was already in flight, and .Idle is the latency the schedule
// failed to hide. Combine with WithFields to give depth 2 independent
// exchanges to keep in flight:
//
//	s, err := stance.NewSession(ctx, g, 4,
//	    stance.WithFields(2),
//	    stance.WithPipeline(2))
func WithPipeline(depth int) Option {
	return func(c *session.Config) { c.Pipeline = depth }
}

// WithOverlap is WithPipeline(1). The benchmark module compiles
// against this name and may not change in the same PR as the code it
// measures; a later benchmark PR removes it.
func WithOverlap() Option { return WithPipeline(1) }

// WithFields makes the solver advance n independent solution fields
// per iteration (default 1). Field 0 is the solution vector Result
// returns, so existing results are unchanged; the extra fields give
// executor depths >= 1 independent exchanges to keep in flight.
func WithFields(n int) Option {
	return func(c *session.Config) { c.Fields = n }
}

// WithKernel replaces the solver's compute body (the built-in Figure8
// kernel by default). A kernel is one method, UpdateRows, which writes
// each listed element's new value, reading its references from the
// list's chunk table (see Rows); its rows arrive in the plan's order,
// not ascending, and each row's result must not depend on that order.
func WithKernel(k Kernel) Option {
	return func(c *session.Config) { c.Kernel = k }
}

// WithWorkRep sets the kernel work amplification: an iteration sweeps
// each element n × WorkFactor times (never less than once), the same
// quantity WithVirtualCompute charges, keeping the
// compute-to-communication ratio of the paper's SUN4 + Ethernet setting
// reproducible on modern hardware. Zero means the default, 1: one
// sweep per iteration on a reference workstation, two on one half as
// fast. A negative n makes NewSession return an error.
func WithWorkRep(n int) Option {
	return func(c *session.Config) { c.WorkRep = n }
}

// WithCheckEvery sets the number of iterations between load-balance
// checks. Zero means the default, 10 (the paper's protocol); a
// negative n makes NewSession return an error.
func WithCheckEvery(n int) Option {
	return func(c *session.Config) { c.CheckEvery = n }
}

// WithOnCheck registers a callback invoked on rank 0 immediately after
// each balance check, for live progress output during long runs (the
// consolidated RunReport still records every check). The callback runs
// inside the SPMD section; keep it cheap and do not call back into the
// session.
func WithOnCheck(f func(CheckEvent)) Option {
	return func(c *session.Config) { c.OnCheck = f }
}

// NewSession builds a ready-to-run session on procs ranks: it opens
// the world on the configured transport, transforms and partitions g,
// and constructs the solver (and balancer, if configured) on every
// rank. ctx governs the whole session — cancelling it unblocks any
// pending communication with context.Canceled instead of deadlocking.
// Close the session when done.
//
//	s, err := stance.NewSession(ctx, g, 4,
//	    stance.WithOrdering("rcb"),
//	    stance.WithNetworkModel(stance.Ethernet(0.1)),
//	    stance.WithBalancer(stance.BalancerConfig{}))
//	report, err := s.Run(100)
func NewSession(ctx context.Context, g *Graph, procs int, opts ...Option) (*Session, error) {
	cfg := session.Config{Procs: procs}
	for _, opt := range opts {
		opt(&cfg)
	}
	return session.New(ctx, g, cfg)
}

// NewSimClock returns a deterministic discrete-event clock for
// WithClock: virtual time advances only when every rank is blocked,
// jumping straight to the next due event, so simulated hours cost
// real milliseconds and identical runs produce identical timings.
func NewSimClock() *SimClock { return vtime.NewSim() }
