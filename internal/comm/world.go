package comm

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"stance/internal/vtime"
)

// TransportFactory builds the endpoints of a p-rank world, p > 0, from
// validated options (factories ignore fields that do not apply to
// them; the in-process transport has no sockets to tune). The returned
// closer (which may be nil) releases resources the individual Comms do
// not own, such as a shared socket mesh.
type TransportFactory func(p int, opts TransportOptions) (comms []*Comm, closer func() error, err error)

// registered is a registry entry: the factory and what the transport
// needs of its options.
type registered struct {
	factory TransportFactory
	needs   needs
}

// needs marks what a registered transport requires of its options,
// checked by CheckOpen before the factory runs.
type needs uint8

const (
	// needsRealClock: the transport delivers on the wall clock, which a
	// simulated clock cannot observe.
	needsRealClock needs = 1 << iota
	// needsTopology: the transport routes by group, so a world without
	// a Topology has nothing to route.
	needsTopology
)

var (
	transportMu sync.RWMutex
	transports  = map[string]registered{}
)

// RegisterTransport makes a transport available to Open under the given
// name, so new backends plug in without touching the callers. The
// built-in transports "inproc", "tcp" and "hybrid" are registered at
// package initialization. Registering a name twice panics, like
// net/sql driver registration.
func RegisterTransport(name string, factory TransportFactory) { register(name, factory, 0) }

func register(name string, factory TransportFactory, n needs) {
	if name == "" || factory == nil {
		panic("comm: RegisterTransport with empty name or nil factory")
	}
	transportMu.Lock()
	defer transportMu.Unlock()
	if _, dup := transports[name]; dup {
		panic(fmt.Sprintf("comm: transport %q registered twice", name))
	}
	transports[name] = registered{factory, n}
}

// Transports returns the sorted names of the registered transports.
func Transports() []string {
	transportMu.RLock()
	defer transportMu.RUnlock()
	names := make([]string, 0, len(transports))
	for name := range transports {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterTransport("inproc", func(p int, opts TransportOptions) ([]*Comm, func() error, error) {
		comms, err := newInprocWorld(p, opts)
		return comms, nil, err
	})
	// Socket reads complete on the wall clock, invisible to a
	// vtime.Sim, so the sim would advance past in-flight messages (or
	// declare a deadlock while bytes are on the wire): the socket
	// transports need the real clock.
	register("tcp", newTCPWorld, needsRealClock)
}

// World is a first-class SPMD world: the set of communicators plus the
// lifecycle they share. Open (or WrapWorld, for sub-world endpoints)
// builds one, SPMD runs a section on it and Close releases it; there
// is no other way into a world.
type World struct {
	comms     []*Comm
	boxes     []*mailbox // comms[i]'s root-world mailbox
	closer    func() error
	transport string

	mu     sync.Mutex
	active bool // an SPMD section is running
	// ranks[i] hands each section to rank i's goroutine, which the first
	// section starts and Close stops: every section after the first
	// reuses the goroutines, and the stacks they have grown. running
	// counts the goroutines until they have exited.
	ranks    []chan *section
	running  sync.WaitGroup
	closed   bool
	closeErr error
}

// CheckOpen reports the first reason Open would refuse to build a world
// of p ranks on the named transport with opts, before any factory runs:
// a non-positive size, options TransportOptions.Validate rejects, a
// topology of another size, an unregistered name, a simulated clock on
// a transport that needs the real one, or no topology for a transport
// that needs one.
func CheckOpen(transport string, p int, opts TransportOptions) error {
	_, err := lookup(transport, p, opts)
	return err
}

// lookup runs CheckOpen's checks and returns the transport's factory.
func lookup(name string, p int, opts TransportOptions) (TransportFactory, error) {
	if name == "" {
		name = "inproc"
	}
	if p <= 0 {
		return nil, fmt.Errorf("comm: world size must be positive, got %d", p)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Topology != nil && opts.Topology.P() != p {
		return nil, fmt.Errorf("comm: topology covers %d ranks, world has %d", opts.Topology.P(), p)
	}
	transportMu.RLock()
	tr, ok := transports[name]
	transportMu.RUnlock()
	switch {
	case !ok:
		return nil, fmt.Errorf("comm: unknown transport %q (registered: %s)", name, strings.Join(Transports(), ", "))
	case tr.needs&needsRealClock != 0 && vtime.AsSim(opts.Clock) != nil:
		return nil, fmt.Errorf("comm: the %s transport cannot run on a simulated clock (real sockets deliver on the wall clock); use the inproc transport for virtual-time runs", name)
	case tr.needs&needsTopology != 0 && opts.Topology == nil:
		return nil, fmt.Errorf("comm: the %s transport requires a Topology (without groups it degenerates to \"tcp\")", name)
	}
	return tr.factory, nil
}

// Open builds a world of p ranks on the named transport ("" selects
// "inproc"). The transport must have been registered with
// RegisterTransport. The size and options are checked here (CheckOpen),
// before any factory runs, so a bad tuning fails identically on every
// transport.
func Open(transport string, p int, opts TransportOptions) (*World, error) {
	if transport == "" {
		transport = "inproc"
	}
	factory, err := lookup(transport, p, opts)
	if err != nil {
		return nil, err
	}
	comms, closer, err := factory(p, opts)
	if err != nil {
		return nil, fmt.Errorf("comm: transport %q: %w", transport, err)
	}
	if len(comms) != p {
		if closer != nil {
			closer()
		}
		return nil, fmt.Errorf("comm: transport %q built %d endpoints for %d ranks", transport, len(comms), p)
	}
	if opts.Topology != nil {
		// World endpoints learn the group structure here, once, for
		// every transport: the inter-group traffic counters live on the
		// endpoint, not in the transports.
		for _, c := range comms {
			c.topo = opts.Topology
		}
	}
	return newWorld(comms, closer, transport), nil
}

func newWorld(comms []*Comm, closer func() error, transport string) *World {
	boxes := make([]*mailbox, len(comms))
	for i, c := range comms {
		boxes[i] = c.tr.box()
	}
	return &World{comms: comms, boxes: boxes, closer: closer, transport: transport}
}

// WrapWorld adopts pre-built endpoints into a World, so a set of
// sub-world endpoints (Comm.Sub) can run their own SPMD sections with
// their own cancellation. Close closes the endpoints, which for
// sub-communicators leaves the parent world's transport untouched, and
// ends the world's rank goroutines: a wrapped world must be closed like
// any other.
func WrapWorld(comms []*Comm) *World {
	return newWorld(comms, nil, "custom")
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.comms) }

// Transport returns the name the world was opened with.
func (w *World) Transport() string { return w.transport }

// Comm returns rank's endpoint.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= len(w.comms) {
		panic(fmt.Sprintf("comm: rank %d of %d", rank, len(w.comms)))
	}
	return w.comms[rank]
}

// Comms returns all endpoints, indexed by rank. The slice must not be
// modified.
func (w *World) Comms() []*Comm { return w.comms }

// SPMD runs f once per rank, each on the rank's own goroutine — the
// Single Program Multiple Data execution model of paper Section 2 —
// with ctx bound to every endpoint's blocking operations: cancelling
// ctx unblocks pending receives, timed ones included, with ctx.Err()
// and tears the section down instead of deadlocking; a rank returning
// an error cancels the others the same way. The section watches its
// context once, not once per endpoint: one callback wakes every
// endpoint's mailbox, and a receive parked under the section's context
// registers nothing of its own. It joins all ranks and returns every
// failed rank's error, prefixed "rank r: ", joined. Only one SPMD
// section may run on a world at a time; a concurrent call fails rather
// than racing on the context binding.
func (w *World) SPMD(ctx context.Context, f func(c *Comm) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.active {
		w.mu.Unlock()
		return fmt.Errorf("comm: an SPMD section is already running on this world")
	}
	w.active = true
	if w.ranks == nil {
		w.ranks = make([]chan *section, len(w.comms))
		for i := range w.ranks {
			// One slot: the section is handed over without waiting for
			// the goroutine to come back from the previous one.
			w.ranks[i] = make(chan *section, 1)
			w.running.Add(1)
			go w.rank(i, w.ranks[i])
		}
	}
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.active = false
		if w.closed {
			// Close ran during the section and left the goroutines to it.
			w.stopRanksLocked()
		}
		w.mu.Unlock()
	}()
	if err := ctx.Err(); err != nil {
		return err
	}
	// Ranks share a child context that is cancelled as soon as any
	// rank's function returns an error, so peers blocked in a
	// collective waiting on the failed rank unwind instead of
	// deadlocking the section.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := runCtx.Done()
	for i, c := range w.comms {
		c.setContext(runCtx)
		w.boxes[i].cover(done)
	}
	stop := context.AfterFunc(runCtx, func() {
		for _, m := range w.boxes {
			m.wake()
		}
	})
	// On a simulated clock every rank goroutine is a clock worker for
	// the duration of the section, all of them registered before any
	// starts, so an early blocker cannot trigger a premature advance:
	// the clock then auto-advances whenever all ranks are blocked, which
	// is what makes virtual-time runs self-driving.
	var sim *vtime.Sim
	if len(w.comms) > 0 {
		sim = vtime.AsSim(w.comms[0].Clock())
	}
	if sim != nil {
		sim.Add(len(w.comms))
	}
	sec := &section{f: f, cancel: cancel, sim: sim, errs: make([]error, len(w.comms))}
	sec.wg.Add(len(w.comms))
	for _, ch := range w.ranks {
		ch <- sec
	}
	sec.wg.Wait()
	// The watch goes before the deferred cancel, so a section that ends
	// normally wakes nobody on its way out.
	stop()
	for i, c := range w.comms {
		c.setContext(nil)
		w.boxes[i].uncover(done)
	}
	return errors.Join(sec.errs...)
}

// section is one SPMD call as the rank goroutines see it.
type section struct {
	f      func(c *Comm) error
	cancel context.CancelFunc
	sim    *vtime.Sim
	errs   []error
	wg     sync.WaitGroup
}

// errGoexit is the error of a rank whose body ended its goroutine
// instead of returning.
var errGoexit = errors.New("comm: the SPMD body exited without returning (runtime.Goexit, as t.Fatal calls)")

// run is one rank's share of the section. A body that does not return
// (runtime.Goexit) fails its rank like an error does: the section is
// cancelled, so peers parked on the rank unwind instead of waiting for
// it forever.
func (s *section) run(c *Comm, i int) {
	defer s.wg.Done()
	if s.sim != nil {
		defer s.sim.Done()
	}
	err := errGoexit
	defer func() {
		if err != nil {
			s.cancel()
			s.errs[i] = fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
	}()
	err = s.f(c)
}

// rank is rank i's goroutine: it runs its share of every section
// handed to it until the world closes. A body that ends its goroutine
// mid-section (runtime.Goexit, as testing's FailNow does) ends this
// one; a fresh one takes over, so the next section still finds rank i.
func (w *World) rank(i int, sections <-chan *section) {
	defer w.running.Done()
	closed := false
	defer func() {
		if !closed {
			w.running.Add(1)
			go w.rank(i, sections)
		}
	}()
	for s := range sections {
		s.run(w.comms[i], i)
	}
	closed = true
}

// stopRanksLocked ends the rank goroutines and waits for them to exit.
// Only Close stops them, and a closed world runs no further section.
func (w *World) stopRanksLocked() {
	for _, ch := range w.ranks {
		close(ch)
	}
	w.ranks = nil
	w.running.Wait()
}

// Stats returns the total messages and payload bytes sent by all ranks
// since the world was opened.
func (w *World) Stats() (msgs, bytes int64) {
	for _, c := range w.comms {
		m, b := c.Stats()
		msgs += m
		bytes += b
	}
	return msgs, bytes
}

// InterGroupStats returns the total messages and payload bytes sent
// across group boundaries by all ranks since the world was opened —
// the traffic on the slow inter-group link of a two-level world.
// Always zero on a world opened without a Topology.
func (w *World) InterGroupStats() (msgs, bytes int64) {
	for _, c := range w.comms {
		m, b := c.InterStats()
		msgs += m
		bytes += b
	}
	return msgs, bytes
}

// Close shuts every endpoint down, releases transport resources and
// ends the rank goroutines: before it returns, or, when a section is
// running, before that section's SPMD returns.
// Pending receives fail with ErrClosed. Close is idempotent: repeated
// calls return the first call's error.
func (w *World) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.closeErr
	}
	w.closed = true
	if !w.active {
		w.stopRanksLocked()
	}
	var err error
	for _, c := range w.comms {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if w.closer != nil {
		if cerr := w.closer(); err == nil {
			err = cerr
		}
	}
	w.closeErr = err
	return err
}
