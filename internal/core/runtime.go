// Package core is the STANCE runtime proper: it ties the locality
// transform (Phase A), inspector (Phase B), executor (Phase C) and
// redistribution machinery together behind the interface a
// data-parallel application programs against. Each SPMD rank holds a
// Runtime; collective operations (New, Exchange, Remap) must be called
// by every rank.
package core

import (
	"fmt"
	"slices"
	"time"

	"stance/internal/comm"
	"stance/internal/graph"
	"stance/internal/order"
	"stance/internal/partition"
	"stance/internal/sched"
	"stance/internal/vtime"
)

// Message tags used by the runtime (distinct from the inspector's).
const (
	tagExchange = 0x202
	tagScatter  = 0x203
	tagGatherV  = 0x205
)

// Config parameterizes Runtime construction. The inspector always
// builds with sched.BuildSort2, and ChooseLayout always searches
// arrangements with redist.Iterated for the largest overlap. The
// paper's alternatives — schedule_sort1, the translation-table
// baseline, the single MCR sweep and the re-cut without a search — are
// reproduced by internal/bench's Tables 1–3, not configured here.
type Config struct {
	// Order is the locality transformation (nil means identity; the
	// experiments use order.RCB or order.Spectral). It must be
	// deterministic: ranks that prepare their own Transform each
	// compute it independently.
	Order order.Func
	// Transform is Phase A already done — NewTransform's result for the
	// same graph, Order and VertexWeights — shared read-only by every
	// rank that is handed it. nil means the rank prepares its own.
	Transform *Transform
	// Weights are the initial relative processor capabilities (nil
	// means uniform). Length must equal the world size.
	Weights []float64
	// VertexWeights are per-vertex computational weights in the
	// original vertex numbering (nil means unit weights). With weights
	// set, intervals balance total vertex weight instead of vertex
	// counts — the paper's "nodes with computational weight
	// proportional to the computational capabilities" model. A common
	// choice is the vertex degree, which tracks the Figure 8 kernel's
	// per-element cost.
	VertexWeights []float64
	// Groups assigns each rank of the full world to a node group
	// (comm.Topology.GroupOfSlice; nil means a flat environment). With
	// groups set, CutLayout cuts hierarchically: across groups first —
	// sliding each group boundary to where the transformed graph is
	// thinnest, since those boundaries become ghost traffic on the slow
	// inter-group link — then within groups by member capability. The
	// hierarchical cut applies only when the weights cover the full
	// world: an elastic subset has no stable rank -> group mapping, so
	// it falls back to the flat cut. A group boundary slides at most
	// n/(8·G) list elements from its balanced position.
	Groups []int
}

// Runtime is one rank's view of a distributed computational graph.
type Runtime struct {
	c *comm.Comm
	// clock is the world's time source (the transport's clock); every
	// runtime measurement — inspector builds, remap costs, split-phase
	// idle — comes off it, so a world on a simulated clock measures
	// deterministic virtual durations.
	clock  vtime.Clock
	cfg    Config
	n      int64
	tg     *graph.Graph // transformed graph (immutable, shared read-only)
	perm   []int32      // original vertex -> transformed index
	layout *partition.Layout
	sch    *sched.Schedule
	// itemWeights are the vertex weights in transformed order, or nil
	// for unit weights.
	itemWeights []float64

	// plan is the compiled replay form of sch: per-peer pack/unpack
	// index tables plus persistent wire buffers. rebuild recompiles it
	// into the previous plan's storage whenever the schedule changes; a
	// parked runtime keeps it for that storage alone.
	plan *sched.Plan

	// off is what the schedule builders read: Xadj spans every local
	// row, but Adj holds the off-interval references alone — the only
	// ones a builder acts on — and boundaryRows lists the rows that have
	// any, ascending. The inspector writes them in place, and they keep
	// their high-water capacity from one rebuild to the next, like the
	// plan's chunk tables: the rank's one localized copy of its adjacency.
	off          sched.Refs
	boundaryRows []int32

	vecs []*Vector
	// wireScratch is a reused receive buffer for non-replay transfers
	// (redistribution).
	wireScratch []byte

	// live are the handle-based operations currently between Start and
	// Wait, in start order; each owns its arrival mask, parked payloads
	// and wire tag. opPool recycles completed handles — every executor
	// op, synchronous ones included, runs on one — and opSeq drives the
	// rotating tag window (reset on every rebuild — see splitphase.go).
	// vsetScratch is the reused single-vector view the one-vector entry
	// points hand to start.
	live        []*OpHandle
	opPool      []*OpHandle
	opSeq       int
	vsetScratch []*Vector

	// Executor traffic counters (see ExecStats).
	execOps, execMsgs, execBytes int64
	// Split-phase counters: execOverlap counts Start/Wait operation
	// pairs, execPipelined counts the Starts issued while another
	// handle was already live, execIdle accumulates the time Wait spent
	// blocked waiting for arrivals — the latency the overlapped compute
	// failed to hide.
	execOverlap   int64
	execPipelined int64
	execIdle      time.Duration

	lastInspector time.Duration
}

// ExecStats counts the executor data path's traffic: schedule-replay
// operations (Exchange/ScatterAdd and their coalesced variants), the
// messages they sent and the payload bytes those messages carried.
// Unlike comm's transport counters it excludes collectives, inspector
// and remap traffic, so it is exactly the per-iteration replay cost
// the paper's Phase C measures.
// The JSON field names are stable API (the stanced job service serves
// reports over HTTP); durations marshal as integer nanoseconds.
type ExecStats struct {
	Ops   int64 `json:"ops"`
	Msgs  int64 `json:"msgs"`
	Bytes int64 `json:"bytes"`
	// Overlapped counts the replay operations that ran split-phase
	// (one per Start/Wait pair); they are included in Ops.
	Overlapped int64 `json:"overlapped"`
	// Pipelined counts the split-phase operations started while
	// another handle was already in flight — the ops the single-slot
	// executor would have serialized; they are included in Overlapped.
	Pipelined int64 `json:"pipelined"`
	// Idle is the total time Wait calls spent blocked waiting for
	// arrivals — the communication latency the overlapped interior
	// compute did not hide. Zero idle means the split-phase pipeline
	// hid the exchange entirely.
	Idle time.Duration `json:"idle_ns"`
}

// Add accumulates o into s.
func (s *ExecStats) Add(o ExecStats) {
	s.Ops += o.Ops
	s.Msgs += o.Msgs
	s.Bytes += o.Bytes
	s.Overlapped += o.Overlapped
	s.Pipelined += o.Pipelined
	s.Idle += o.Idle
}

// Sub returns s - o, for windowed deltas.
func (s ExecStats) Sub(o ExecStats) ExecStats {
	return ExecStats{
		Ops: s.Ops - o.Ops, Msgs: s.Msgs - o.Msgs, Bytes: s.Bytes - o.Bytes,
		Overlapped: s.Overlapped - o.Overlapped, Pipelined: s.Pipelined - o.Pipelined,
		Idle: s.Idle - o.Idle,
	}
}

// New builds the runtime collectively: transforms the graph into the
// one-dimensional representation, partitions it by the configured
// weights, extracts this rank's local subgraph and builds the
// communication schedule. Every rank must call New with the same graph
// and configuration.
func New(c *comm.Comm, g *graph.Graph, cfg Config) (*Runtime, error) {
	if cfg.Weights == nil && c != nil {
		cfg.Weights = make([]float64, c.Size())
		for i := range cfg.Weights {
			cfg.Weights[i] = 1
		}
	}
	rt, err := NewParked(c, g, cfg)
	if err != nil {
		return nil, err
	}
	if len(cfg.Weights) != c.Size() {
		return nil, fmt.Errorf("core: %d weights for %d ranks", len(cfg.Weights), c.Size())
	}
	layout, err := rt.CutLayout(cfg.Weights)
	if err != nil {
		return nil, err
	}
	if err := rt.Bind(c, layout); err != nil {
		return nil, err
	}
	return rt, nil
}

// Transform is the product of Phase A (paper Section 3.1): the
// locality permutation, the graph renumbered by it and the vertex
// weights in transformed order. It is architecture-independent — every
// partition, remap and membership change only re-cuts the same list —
// and immutable, so one Transform serves any number of runtimes.
type Transform struct {
	perm []int32      // original vertex -> transformed index
	tg   *graph.Graph // g renumbered by perm
	// itemWeights are cfg.VertexWeights in transformed order, or nil
	// for unit weights.
	itemWeights []float64
}

// NewTransform runs Phase A on g: cfg.Order (nil means identity), its
// validation, the renumbering, and the reordering of
// cfg.VertexWeights. No other Config field is read.
func NewTransform(g *graph.Graph, cfg Config) (*Transform, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if cfg.Order == nil {
		cfg.Order = order.Identity
	}
	perm, err := cfg.Order(g)
	if err != nil {
		return nil, fmt.Errorf("core: ordering: %w", err)
	}
	if err := order.Validate(perm, g.N); err != nil {
		return nil, fmt.Errorf("core: ordering: %w", err)
	}
	t := &Transform{perm: perm}
	if t.tg, err = permuteTopology(g, perm); err != nil {
		return nil, err
	}
	if cfg.VertexWeights != nil {
		if len(cfg.VertexWeights) != g.N {
			return nil, fmt.Errorf("core: %d vertex weights for %d vertices", len(cfg.VertexWeights), g.N)
		}
		t.itemWeights = make([]float64, g.N)
		for orig, nw := range perm {
			t.itemWeights[nw] = cfg.VertexWeights[orig]
		}
	}
	return t, nil
}

// permuteTopology renumbers g's CSR by perm and leaves its coordinates
// behind: the ordering has read them, and nothing after it does.
func permuteTopology(g *graph.Graph, perm []int32) (*graph.Graph, error) {
	top := *g
	top.Coords = nil
	return top.Permute(perm)
}

// NewParked builds a dormant runtime: it holds the Phase A locality
// transform (cfg.Transform, or its own when that is nil), but the rank
// owns no data and holds no schedule until Bind or Rebind admits it
// into an active sub-world. Vectors may be created on a parked
// runtime; they are empty until admission.
func NewParked(c *comm.Comm, g *graph.Graph, cfg Config) (*Runtime, error) {
	if c == nil || g == nil {
		return nil, fmt.Errorf("core: nil communicator or graph")
	}
	t := cfg.Transform
	if t == nil {
		var err error
		if t, err = NewTransform(g, cfg); err != nil {
			return nil, err
		}
	} else if len(t.perm) != g.N {
		return nil, fmt.Errorf("core: transform of %d vertices for a graph of %d", len(t.perm), g.N)
	}
	// The runtime keeps the transform's parts, not the Transform:
	// SetGraph replaces tg alone.
	cfg.Transform = nil
	return &Runtime{
		c: c, clock: c.Clock(), cfg: cfg, n: int64(g.N),
		tg: t.tg, perm: t.perm, itemWeights: t.itemWeights,
	}, nil
}

// CutLayout cuts the transformed list into len(weights) contiguous
// intervals in proportion to the weights — by total vertex weight when
// the runtime carries vertex weights — under the identity arrangement.
// The number of intervals is independent of the runtime's current
// world size, which is what membership transitions need: the
// coordinator cuts the list for the incoming active set before the
// sub-world exists.
func (rt *Runtime) CutLayout(weights []float64) (*partition.Layout, error) {
	if spec, ok := rt.hierSpec(len(weights)); ok {
		if rt.itemWeights != nil {
			return partition.NewHierarchicalWeighted(rt.itemWeights, weights, spec)
		}
		return partition.NewHierarchical(rt.n, weights, spec)
	}
	if rt.itemWeights != nil {
		return partition.NewWeighted(rt.itemWeights, weights, identityArrangement(len(weights)))
	}
	return partition.NewBlock(rt.n, weights)
}

// hierSpec returns the hierarchical partitioning spec when the
// configuration carries groups covering exactly p processors — the
// full world. Elastic subsets cut flat (see Config.Groups).
func (rt *Runtime) hierSpec(p int) (partition.HierSpec, bool) {
	if rt.cfg.Groups == nil || len(rt.cfg.Groups) != p {
		return partition.HierSpec{}, false
	}
	return partition.HierSpec{
		GroupOf: rt.cfg.Groups,
		Xadj:    rt.tg.Xadj,
		Adj:     rt.tg.Adj,
	}, true
}

// Bind attaches a prepared (parked) runtime to a communicator and
// layout and runs the inspector — the activation half of New, called
// directly by the elastic layer when the initial active set is a
// sub-world. The layout must have c.Size() processors and this rank's
// interval must match the vectors' current contents (for a freshly
// parked runtime: any layout, since no vectors hold data yet).
func (rt *Runtime) Bind(c *comm.Comm, layout *partition.Layout) error {
	if c == nil || layout == nil {
		return fmt.Errorf("core: nil communicator or layout")
	}
	if layout.P() != c.Size() {
		return fmt.Errorf("core: layout has %d processors for %d ranks", layout.P(), c.Size())
	}
	if layout.N() != rt.n {
		return fmt.Errorf("core: layout covers %d elements, want %d", layout.N(), rt.n)
	}
	if err := rt.quiescent("bind"); err != nil {
		return err
	}
	rt.c = c
	rt.layout = layout
	if err := rt.rebuild(); err != nil {
		return err
	}
	rt.fitVectors()
	return nil
}

// rebuild runs the inspector for the current layout and rank (see
// inspect).
func (rt *Runtime) rebuild() error { return rt.inspect(rt.layout, rt.c.Rank()) }

// inspect runs the inspector for layout on rank: one pass over the
// rank's references, the schedule build from what the pass set aside,
// and the plan recompiled and classified in the previous plan's
// storage. It sends nothing — BuildSort2 infers what every peer needs
// from access symmetry — and it writes the inspector's state alone (the
// reference split, the schedule, the plan, the op-tag counter and
// lastInspector), reading nothing else but the transformed graph, so
// Rebind runs it while the vectors migrate. Nor does it read a
// simulated clock: Phase B never blocks, so it takes no virtual time,
// and an overlapped rebuild is not the clock's worker — a reading there
// would see whatever instants the migration waits through. On a
// simulated clock lastInspector is therefore zero, the reading a
// worker's own stamps would give; on a real clock it is the rebuild's
// wall time.
func (rt *Runtime) inspect(layout *partition.Layout, rank int) error {
	timed := vtime.AsSim(rt.clock) == nil
	var start time.Time
	if timed {
		start = rt.clock.Now()
	}
	iv := layout.Interval(rank)
	rt.scanRefs(iv)
	s, err := sched.BuildSort2(layout, rank, rt.off)
	if err != nil {
		return err
	}
	rt.sch = s
	rt.plan = sched.Recompile(rt.plan, s)
	// The rotating op-tag counter restarts with the schedule: every
	// rebuild site (Bind, Remap, Rebind, SetGraph) requires zero live
	// handles, and resetting here keeps a freshly admitted rank's tag
	// sequence aligned with the survivors'.
	rt.opSeq = 0
	// The interior/boundary split and the lists' chunk tables ride on the
	// plan, so they are rebuilt here too and stay valid across remaps and
	// rebinds. The tables are copied from the transformed CSR in place and
	// localized on the way: g − Lo, or a ghost slot off the interval.
	err = rt.plan.ClassifyRows(rt.tg.Xadj[iv.Lo:iv.Hi+1], rt.tg.Adj, iv.Lo, s.Ghosts, rt.boundaryRows)
	// The whole of Phase B, not the builder call: the builder sees a
	// few thousand references and takes microseconds, and the balancer
	// prices a remap with this figure.
	rt.lastInspector = 0
	if timed {
		rt.lastInspector = rt.clock.Now().Sub(start)
	}
	return err
}

// scanRefs is the inspector's pass over the references of rows iv of the
// transformed CSR, read in place: one flat loop that sets the
// off-interval references aside for the schedule builder (see
// Runtime.off) and records the rows they sit in. The local references
// need nothing: the chunk build localizes them as g − Lo. References
// outside [0, n) are off-interval too, so the builder's validation still
// rejects them.
func (rt *Runtime) scanRefs(iv partition.Interval) {
	nLocal := int(iv.Len())
	xadj := rt.tg.Xadj[iv.Lo : iv.Hi+1]
	lo, base := int32(iv.Lo), xadj[0]
	offX := slices.Grow(rt.off.Xadj[:0], nLocal+1)[:nLocal+1]
	offAdj, rows := rt.off.Adj[:0], rt.boundaryRows[:0]
	offX[0] = 0
	u := 0
	refs := rt.tg.Adj[base:xadj[nLocal]]
	for k := 0; ; k++ {
		if k += nextOff(refs[k:], lo, nLocal); k == len(refs) {
			break
		}
		g := refs[k]
		// Catch up with the row this reference sits in, closing the rows
		// before it.
		for xadj[u+1]-base <= int32(k) {
			u++
			offX[u] = int32(len(offAdj))
		}
		if len(rows) == 0 || rows[len(rows)-1] != int32(u) {
			rows = append(rows, int32(u))
		}
		offAdj = append(offAdj, int64(g))
	}
	for u < nLocal {
		u++
		offX[u] = int32(len(offAdj))
	}
	rt.off = sched.Refs{Xadj: offX, Adj: offAdj}
	rt.boundaryRows = rows
}

// nextOff returns the index of the first of refs outside [lo, lo+n), or
// len(refs) if there is none. It stays out of line: inlined into
// scanRefs, its loop shares that function's registers and ran at half
// the speed (1.1 against 0.56 ns a reference on a 45 000-row rank, on a
// 2-core Xeon VM).
//
//go:noinline
func nextOff(refs []int32, lo int32, n int) int {
	for k, g := range refs {
		if uint32(g-lo) >= uint32(n) {
			return k
		}
	}
	return len(refs)
}

// Comm returns the rank's communicator.
func (rt *Runtime) Comm() *comm.Comm { return rt.c }

// Clock returns the world's time source. The solver, balancer and
// elastic layers all measure through it.
func (rt *Runtime) Clock() vtime.Clock { return rt.clock }

// Layout returns the current data layout.
func (rt *Runtime) Layout() *partition.Layout { return rt.layout }

// Schedule returns the current communication schedule (nil while
// parked). It is valid until the next Bind, Remap, Rebind or SetGraph,
// which builds a new one; the plan's per-peer tables alias its lists.
func (rt *Runtime) Schedule() *sched.Schedule { return rt.sch }

// Plan returns the compiled exchange plan the executor replays (nil
// while parked). The plan and every slice read from it are valid until
// the next Bind, Remap, Rebind or SetGraph: the rebuild returns a new
// *Plan and reuses this one's storage for it.
func (rt *Runtime) Plan() *sched.Plan {
	if rt.Parked() {
		return nil
	}
	return rt.plan
}

// ExecStats returns the executor traffic counters accumulated since
// the runtime was built.
func (rt *Runtime) ExecStats() ExecStats {
	return ExecStats{
		Ops: rt.execOps, Msgs: rt.execMsgs, Bytes: rt.execBytes,
		Overlapped: rt.execOverlap, Pipelined: rt.execPipelined, Idle: rt.execIdle,
	}
}

// Perm returns the locality transformation (original vertex ->
// transformed index). The returned slice must not be modified.
func (rt *Runtime) Perm() []int32 { return rt.perm }

// Parked reports whether the runtime is dormant: outside the active
// set, owning no data and holding no schedule. Executor and collective
// operations are invalid on a parked runtime; Rebind re-activates it.
func (rt *Runtime) Parked() bool { return rt.layout == nil }

// NumVectors returns the number of vectors registered with the
// runtime.
func (rt *Runtime) NumVectors() int { return len(rt.vecs) }

// LocalN returns the number of locally owned elements (zero while
// parked).
func (rt *Runtime) LocalN() int {
	if rt.sch == nil {
		return 0
	}
	return rt.sch.NLocal
}

// nGhosts returns the ghost-section size (zero while parked).
func (rt *Runtime) nGhosts() int {
	if rt.sch == nil {
		return 0
	}
	return rt.sch.NGhosts()
}

// GlobalInterval returns the contiguous range of transformed indices
// this rank owns (empty while parked).
func (rt *Runtime) GlobalInterval() partition.Interval {
	if rt.layout == nil {
		return partition.Interval{}
	}
	return rt.layout.Interval(rt.c.Rank())
}

// LocalAdj materializes the localized CSR: for local element u, its
// references are adj[xadj[u]:xadj[u+1]], where values < LocalN() index
// the vector's local section and values >= LocalN() index the ghost
// section (empty while parked). The runtime keeps no such copy — the
// plan's chunk tables are its one localized adjacency — so every call
// builds fresh slices from the transformed graph and the schedule. No
// runtime path calls it.
func (rt *Runtime) LocalAdj() (xadj, adj []int32) {
	if rt.Parked() {
		return nil, nil
	}
	iv := rt.GlobalInterval()
	rows := rt.tg.Xadj[iv.Lo : iv.Hi+1]
	for _, x := range rows {
		xadj = append(xadj, x-rows[0])
	}
	for _, g := range rt.tg.Adj[rows[0]:rows[len(rows)-1]] {
		ref := int64(g) - iv.Lo
		if !iv.Contains(int64(g)) {
			ref = int64(rt.sch.NLocal + rt.sch.GhostSlot(int64(g)))
		}
		adj = append(adj, int32(ref))
	}
	return xadj, adj
}

// LastInspectorTime reports how long the most recent inspector run took
// — all of Phase B: the pass over the rank's references, the schedule
// build, the plan compile, the classification and the chunk tables. It
// is the cost the load balancer weighs remapping against. On a
// simulated clock it is zero: Phase B takes no virtual time.
func (rt *Runtime) LastInspectorTime() time.Duration { return rt.lastInspector }

// quiescent returns the error op returns while split-phase handles are
// live: every rebuild replaces the plan they replay.
func (rt *Runtime) quiescent(op string) error {
	if n := len(rt.live); n > 0 {
		return fmt.Errorf("core: %s while %d split-phase op(s) are in flight; Wait on their handles first", op, n)
	}
	return nil
}

// identityArrangement returns the arrangement [0, 1, ..., p-1].
func identityArrangement(p int) []int {
	arr := make([]int, p)
	for i := range arr {
		arr[i] = i
	}
	return arr
}
