// Package solver implements the paper's motivating application: the
// irregular loop of Figure 8 (neighbor averaging through an
// indirection array over an unstructured mesh), iterated hundreds of
// times with an implicit synchronization per phase. It runs on the
// core runtime and doubles as the measurement instrument: per-phase
// compute and communication times drive the adaptive load balancer,
// and a work-amplification hook lets the hetero package emulate slower
// or loaded workstations.
package solver

import (
	"fmt"
	"slices"
	"time"

	"stance/internal/core"
	"stance/internal/hetero"
	"stance/internal/sched"
	"stance/internal/vtime"
)

// Solver holds one rank's state for the iterative loop.
type Solver struct {
	rt    *core.Runtime
	env   *hetero.Env
	clock vtime.Clock
	y     *core.Vector
	t     []float64 // Figure 8's scratch vector: the new values, until every row is in

	// fields are the independent solution vectors the loop advances
	// each iteration; fields[0] is y. A multi-field solver models the
	// paper's multi-vector kernels: every field runs the same sweep on
	// its own data, so their exchanges are independent ops that depths
	// >= 1 keep in flight together.
	fields []*core.Vector
	// handles[f] is field f's in-flight exchange at depths >= 1 (nil
	// when none is).
	handles []*core.OpHandle

	// kern is the per-iteration compute body (Figure8 by default).
	kern Kernel
	// depth is how far a field's ghost exchange may run ahead of the
	// sweep that consumes it; see SetPipeline.
	depth int

	// workRep is the number of times each element's kernel body is
	// repeated per iteration at work factor 1. Amplifying per-element
	// work keeps the compute/communication ratio of the paper's SUN4 +
	// Ethernet setting reproducible on modern hardware.
	workRep int

	// costPerItem, when positive, switches compute emulation from real
	// spinning to virtual charging: the kernel sweeps each element once
	// (repeats recompute identical values, so numerics are unchanged)
	// and the solver charges costPerItem × workRep × WorkFactor per
	// element to the clock instead. On a simulated clock this is what
	// makes heterogeneity an exact, instant, deterministic quantity; on
	// the real clock it emulates compute by sleeping.
	costPerItem time.Duration

	iter int

	// stamp is when the phase in progress began; see lap.
	stamp time.Time
	// Accumulated timings since the last TakeTimings call.
	computeTime time.Duration
	commTime    time.Duration
	items       int64
}

// New creates a solver for the runtime. env may be nil (uniform,
// unloaded). workRep < 1 is treated as 1.
func New(rt *core.Runtime, env *hetero.Env, workRep int) (*Solver, error) {
	if rt == nil {
		return nil, fmt.Errorf("solver: nil runtime")
	}
	if env != nil {
		if err := env.Validate(); err != nil {
			return nil, err
		}
		// The environment describes physical workstations, so it is
		// sized to the root world even when the runtime is bound to an
		// active sub-world.
		if env.P() != rt.Comm().WorldSize() {
			return nil, fmt.Errorf("solver: environment has %d workstations, world has %d",
				env.P(), rt.Comm().WorldSize())
		}
	}
	if workRep < 1 {
		workRep = 1
	}
	s := &Solver{
		rt:      rt,
		env:     env,
		clock:   rt.Clock(),
		y:       rt.NewVector(),
		kern:    Figure8{},
		workRep: workRep,
	}
	s.fields = []*core.Vector{s.y}
	s.handles = make([]*core.OpHandle, 1)
	s.InitDefault()
	return s, nil
}

// Kernel returns the solver's compute body.
func (s *Solver) Kernel() Kernel { return s.kern }

// SetKernel replaces the compute body.
func (s *Solver) SetKernel(k Kernel) error {
	if k == nil {
		return fmt.Errorf("solver: nil kernel")
	}
	s.kern = k
	return nil
}

// Pipeline returns the executor depth.
func (s *Solver) Pipeline() int { return s.depth }

// SetPipeline sets the executor depth: how far a field's ghost exchange
// may run ahead of the sweep that consumes it. Depth 0 is the paper's
// synchronous phase — block in Exchange, then sweep every local
// element (the plan's interior list, then its boundary list). Depth 1
// posts every field's exchange at the top of the iteration and sweeps
// the interior strip while the messages fly, then drains the arrivals
// and sweeps the boundary strip. Depth 2 additionally re-posts a
// field's exchange the moment its boundary strip is in, so iteration
// k+1's messages fly while the remaining fields still drain iteration
// k. The kernel's dependency chain (a field's exchange needs its
// previous sweep's values) bounds the useful depth at 2; larger values
// behave like 2. Interior elements touch no ghost and boundary rows run
// after every ghost has landed, so the result is bit-for-bit the same
// at every depth; only the schedule of communication against
// computation changes.
func (s *Solver) SetPipeline(depth int) error {
	if depth < 0 {
		return fmt.Errorf("solver: negative pipeline depth %d", depth)
	}
	s.depth = depth
	return nil
}

// SetOverlap is SetPipeline(1) when on and SetPipeline(0) when off. The
// benchmark module compiles against this name and may not change in the
// same PR as the code it measures; a later benchmark PR removes it.
func (s *Solver) SetOverlap(on bool) error {
	if on {
		return s.SetPipeline(1)
	}
	return s.SetPipeline(0)
}

// Fields returns the number of independent solution fields.
func (s *Solver) Fields() int { return len(s.fields) }

// Field returns the f-th solution vector (field 0 is Y).
func (s *Solver) Field(f int) *core.Vector { return s.fields[f] }

// SetFields grows the solver to n independent solution fields. Field 0
// keeps the canonical initial condition, so its trajectory is
// bit-identical to a single-field run; field f starts from the offset
// condition y_f(g) = (g mod 97) + 1 + f. Collective — every rank must
// call it with the same n (vector creation pairs across ranks), before
// the first Step. Fields cannot be dropped.
func (s *Solver) SetFields(n int) error {
	if n < 1 {
		return fmt.Errorf("solver: field count must be at least 1, got %d", n)
	}
	if n < len(s.fields) {
		return fmt.Errorf("solver: cannot drop fields (have %d, want %d)", len(s.fields), n)
	}
	for f := len(s.fields); f < n; f++ {
		v := s.rt.NewVector()
		off := float64(f)
		v.SetByGlobal(func(g int64) float64 { return float64(g%97) + 1 + off })
		s.fields = append(s.fields, v)
		s.handles = append(s.handles, nil)
	}
	return nil
}

// SetVirtualCompute switches the solver to virtual compute charging:
// each element costs perItem × workRep × WorkFactor on the clock per
// iteration, charged with one vtime.Charge around the kernel's single
// sweep of the data (the sweep runs while the charge elapses, so on a
// simulated clock the ranks' kernels overlap). The result is bit-for-bit
// the same as the spinning mode; only where the time comes from changes.
// perItem <= 0 restores real spinning.
func (s *Solver) SetVirtualCompute(perItem time.Duration) {
	if perItem < 0 {
		perItem = 0
	}
	s.costPerItem = perItem
}

// VirtualCompute returns the virtual per-element compute cost (zero in
// spinning mode).
func (s *Solver) VirtualCompute() time.Duration { return s.costPerItem }

// Y returns the solution vector.
func (s *Solver) Y() *core.Vector { return s.y }

// Runtime returns the underlying runtime.
func (s *Solver) Runtime() *core.Runtime { return s.rt }

// Iter returns the number of completed iterations.
func (s *Solver) Iter() int { return s.iter }

// SetIter fast-forwards the iteration counter — used when a parked
// rank is admitted into the active set mid-run: its solver did not
// step while the others did, and the counter must agree globally for
// the environment's iteration-indexed schedules and the balancer's
// check boundaries to line up.
func (s *Solver) SetIter(iter int) { s.iter = iter }

// InitDefault sets the canonical initial condition y(g) = (g mod 97) + 1
// on field 0 and the offset condition y_f(g) = (g mod 97) + 1 + f on
// every additional field.
func (s *Solver) InitDefault() {
	for f, v := range s.fields {
		off := float64(f)
		v.SetByGlobal(func(g int64) float64 { return float64(g%97) + 1 + off })
	}
}

// Step executes one phase of the Figure 8 loop on every field:
//
//	gather ghosts; t[i] = sum_k y[ia[k]] / deg(i); y = t
//
// It is Run(1, nil): at depth >= 2 a lone step has no next iteration to
// post ahead for, so it schedules like depth 1.
func (s *Solver) Step() error { return s.Run(1, nil) }

// strip names the part of the local section one sweep covers.
type strip int

const (
	// whole is every local element: the plan's interior list, then its
	// boundary list.
	whole strip = iota
	// interior is the plan's elements that reference no ghost.
	interior
	// boundary is the plan's elements that reference a ghost; with
	// interior it partitions the local section.
	boundary
)

// sweep computes one strip of a field's new values into the scratch
// vector, and the strip that completes the iteration (every one but
// interior) moves the scratch into the vector's owned section; compute
// time runs from the stamp that ended the phase before (see lap). The
// kernel sees the plan's rows in the same order at every depth. It runs
// max(workRep × WorkFactor(rank, iter), 1) times: the first pass writes
// every row of the strip and the repeats recompute identical values, so
// the numerical result is independent of the environment — only the
// time changes, exactly like a slower workstation. A fractional repeat
// sweeps that share of each list's rows from its front: the plan groups
// rows by degree only inside fixed windows and counts chunks from the
// front, so a prefix holds its share of the adjacency entries too. With
// a virtual compute cost the data is swept once, inside one
// vtime.Charge of workRep × WorkFactor: on a simulated clock the rank
// counts as blocked while its kernel runs, so every rank's sweep runs at
// the same time instead of one after another, and the virtual timeline
// is the one a sweep followed by a Sleep would give; the strip's move
// into the vector runs inside the same charge. Between an
// exchange's Start and Wait that charge is when the in-flight deliveries
// land, so it hides the message flight like real interior compute does.
func (s *Solver) sweep(data []float64, part strip) {
	nLocal := s.rt.LocalN()
	s.t = slices.Grow(s.t[:0], nLocal)[:nLocal]
	next := s.t
	plan := s.rt.Plan()
	var lists [2]sched.Rows
	switch part {
	case whole:
		lists[0], lists[1] = plan.InteriorRows(), plan.BoundaryRows()
	case interior:
		lists[0] = plan.InteriorRows()
	case boundary:
		lists[0] = plan.BoundaryRows()
	}
	pass := func(share float64) {
		for _, rows := range lists {
			if m := int(share * float64(len(rows.Idx))); m > 0 {
				rows.Idx = rows.Idx[:m]
				s.kern.UpdateRows(data, rows, next)
			}
		}
	}
	factor := 1.0
	if s.env != nil {
		// Index the environment by world rank: the workstation identity
		// survives membership changes that renumber the active
		// sub-world.
		factor = s.env.WorkFactor(s.rt.Comm().WorldRank(), s.iter)
	}
	var d time.Duration // this sweep's compute time
	if s.costPerItem == 0 {
		// Whole passes, then a prefix pass for what is left of r.
		for r := max(float64(s.workRep)*factor, 1); r > 0; r-- {
			pass(min(r, 1))
		}
		if part != interior {
			copy(data, next)
		}
	} else {
		// Pure float arithmetic on deterministic inputs, so the charge
		// is identical on every run. The copy into the owned section is
		// as rank-local as the kernel, so it runs inside the charge too.
		n := len(lists[0].Idx) + len(lists[1].Idx)
		d = time.Duration(float64(s.costPerItem) * float64(s.workRep) * factor * float64(n))
		vtime.Charge(s.clock, d, func() {
			pass(1)
			if part != interior {
				copy(data, next)
			}
		})
	}
	// A virtual charge is d, not the reading; the lap restamps for the
	// next phase either way.
	if lap := s.lap(); s.costPerItem == 0 {
		d = lap
	}
	s.computeTime += d
}

// Timings are the accumulated per-rank measurements since the last
// TakeTimings. The JSON field names are stable API (the stanced job
// service serves reports over HTTP): durations marshal as integer
// nanoseconds, hence the _ns suffix.
type Timings struct {
	Compute time.Duration `json:"compute_ns"`
	Comm    time.Duration `json:"comm_ns"`
	// Items is the total number of element-iterations computed; the
	// load monitor's "average computation time per data item" is
	// Compute/Items (paper Section 5).
	Items int64 `json:"items"`
}

// RatePerItem returns the measured compute seconds per element, the
// paper's capability estimate. Zero items yields zero.
func (t Timings) RatePerItem() float64 {
	if t.Items == 0 {
		return 0
	}
	return t.Compute.Seconds() / float64(t.Items)
}

// Add accumulates another measurement window into t.
func (t *Timings) Add(o Timings) {
	t.Compute += o.Compute
	t.Comm += o.Comm
	t.Items += o.Items
}

// TakeTimings returns the accumulated measurements and resets them.
func (s *Solver) TakeTimings() Timings {
	t := Timings{Compute: s.computeTime, Comm: s.commTime, Items: s.items}
	s.computeTime, s.commTime, s.items = 0, 0, 0
	return t
}

// Run executes n iterations, invoking afterIter (if non-nil) once per
// completed iteration — the hook the session's cancellation poll uses.
// At depth >= 2 afterIter may run while next-iteration handles are in
// flight, so it must not trigger a Remap or Rebind. The final iteration
// never re-posts: Run always returns with zero live handles, which is
// what lets the session check, remap, rebind or gather between Run
// calls.
func (s *Solver) Run(n int, afterIter func(iter int) error) error {
	// One clock read per phase boundary here too: the first iteration
	// starts at a fresh stamp, every later one at the stamp the previous
	// iteration's last lap left, so afterIter's time falls into the next
	// phase.
	if n > 0 {
		s.stamp = s.clock.Now()
	}
	for k := 0; k < n; k++ {
		// Depth 1 posts at the top of every iteration; depth >= 2 only
		// of the first — each later one was posted behind its field's
		// previous sweep.
		if s.depth == 1 || s.depth >= 2 && k == 0 {
			for f := range s.fields {
				if err := s.post(f); err != nil {
					return err
				}
			}
		}
		ahead := s.depth >= 2 && k < n-1
		for f, v := range s.fields {
			if s.depth == 0 {
				if err := s.rt.Exchange(v); err != nil {
					return err
				}
				s.commTime += s.lap()
				s.sweep(v.Data, whole)
				continue
			}
			// This field's exchange and every other live handle make
			// progress while the interior strip computes.
			s.sweep(v.Data, interior)
			h := s.handles[f]
			s.handles[f] = nil
			if err := h.Wait(); err != nil {
				return err
			}
			s.commTime += s.lap()
			s.sweep(v.Data, boundary)
			if ahead {
				if err := s.post(f); err != nil {
					return err
				}
			}
		}
		s.items += int64(s.rt.LocalN() * len(s.fields))
		s.iter++
		if afterIter != nil {
			if err := afterIter(s.iter); err != nil {
				return err
			}
		}
	}
	return nil
}

// lap ends the phase that began at the last stamp and returns how long
// it took. One clock read per phase boundary: the stamp that ends a
// phase starts the next, so compute and communication tile an iteration.
func (s *Solver) lap() time.Duration {
	now := s.clock.Now()
	d := now.Sub(s.stamp)
	s.stamp = now
	return d
}

// post starts field f's ghost exchange and keeps its handle.
func (s *Solver) post(f int) error {
	h, err := s.rt.ExchangeStart(s.fields[f])
	if err != nil {
		return err
	}
	s.handles[f] = h
	s.commTime += s.lap()
	return nil
}

// GatherResult assembles the solution vector (field 0) on root in
// transformed-global order. Collective.
func (s *Solver) GatherResult(root int) ([]float64, error) {
	return s.rt.GatherGlobal(root, s.y)
}

// GatherField assembles field f on root in transformed-global order
// (field 0 is the GatherResult vector). Collective.
func (s *Solver) GatherField(root, f int) ([]float64, error) {
	if f < 0 || f >= len(s.fields) {
		return nil, fmt.Errorf("solver: field %d of %d", f, len(s.fields))
	}
	return s.rt.GatherGlobal(root, s.fields[f])
}
