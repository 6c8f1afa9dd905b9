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

// TransportFactory builds the endpoints of a p-rank world from
// validated options (factories ignore fields that do not apply to
// them; the in-process transport has no sockets to tune). The returned
// closer (which may be nil) releases resources the individual Comms do
// not own, such as a shared socket mesh.
type TransportFactory func(p int, opts TransportOptions) (comms []*Comm, closer func() error, err error)

var (
	transportMu sync.RWMutex
	transports  = map[string]TransportFactory{}
)

// RegisterTransport makes a transport available to Open under the given
// name, so new backends plug in without touching the callers. The
// built-in transports "inproc" and "tcp" are registered at package
// initialization. Registering a name twice panics, like net/sql driver
// registration.
func RegisterTransport(name string, factory TransportFactory) {
	if name == "" || factory == nil {
		panic("comm: RegisterTransport with empty name or nil factory")
	}
	transportMu.Lock()
	defer transportMu.Unlock()
	if _, dup := transports[name]; dup {
		panic(fmt.Sprintf("comm: transport %q registered twice", name))
	}
	transports[name] = factory
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
	RegisterTransport("tcp", func(p int, opts TransportOptions) ([]*Comm, func() error, error) {
		return newTCPWorld(p, opts)
	})
}

// World is a first-class SPMD world: the set of communicators plus the
// lifecycle they share. Open (or WrapWorld, for sub-world endpoints)
// builds one, SPMD runs a section on it and Close releases it; there
// is no other way into a world.
type World struct {
	comms     []*Comm
	closer    func() error
	transport string

	mu       sync.Mutex
	active   bool // an SPMD section is running
	closed   bool
	closeErr error
}

// Open builds a world of p ranks on the named transport ("" selects
// "inproc"). The transport must have been registered with
// RegisterTransport. The options are validated here, before any
// factory runs, so a bad tuning fails identically on every transport.
func Open(transport string, p int, opts TransportOptions) (*World, error) {
	if transport == "" {
		transport = "inproc"
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Topology != nil && opts.Topology.P() != p {
		return nil, fmt.Errorf("comm: topology covers %d ranks, world has %d", opts.Topology.P(), p)
	}
	transportMu.RLock()
	factory, ok := transports[transport]
	transportMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("comm: unknown transport %q (registered: %s)",
			transport, strings.Join(Transports(), ", "))
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
	return &World{comms: comms, closer: closer, transport: transport}, nil
}

// WrapWorld adopts pre-built endpoints into a World, so a set of
// sub-world endpoints (Comm.Sub) can run their own SPMD sections with
// their own cancellation. Close closes the endpoints, which for
// sub-communicators leaves the parent world's transport untouched.
func WrapWorld(comms []*Comm) *World {
	return &World{comms: comms, transport: "custom"}
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

// SPMD runs f once per rank, each in its own goroutine — the Single
// Program Multiple Data execution model of paper Section 2 — with ctx
// bound to every endpoint's blocking operations: cancelling ctx
// unblocks pending receives with ctx.Err() and tears the section down
// instead of deadlocking; a rank returning an error cancels the others
// the same way. It joins all ranks and returns every failed rank's
// error, prefixed "rank r: ", joined. Only one SPMD section may run on
// a world at a time; a concurrent call fails rather than racing on the
// context binding.
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
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.active = false
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
	for _, c := range w.comms {
		c.setContext(runCtx)
	}
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
	var wg sync.WaitGroup
	errs := make([]error, len(w.comms))
	for i, c := range w.comms {
		wg.Add(1)
		go func(i int, c *Comm) {
			defer wg.Done()
			if sim != nil {
				defer sim.Done()
			}
			if err := f(c); err != nil {
				cancel()
				errs[i] = fmt.Errorf("rank %d: %w", c.Rank(), err)
			}
		}(i, c)
	}
	wg.Wait()
	for _, c := range w.comms {
		c.setContext(nil)
	}
	return errors.Join(errs...)
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

// Close shuts every endpoint down and releases transport resources.
// Pending receives fail with ErrClosed. Close is idempotent: repeated
// calls return the first call's error.
func (w *World) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.closeErr
	}
	w.closed = true
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
