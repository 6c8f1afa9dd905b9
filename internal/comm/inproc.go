package comm

import "sync"

// inprocTransport connects goroutine "workstations" through shared
// mailboxes, applying the network cost model on the sending side. On
// the real clock the model emulates a shared medium: one wire for the
// whole world, so concurrent transmissions from different workstations
// serialize — the defining behaviour of the paper's shared Ethernet.
// On a simulated clock (vtime.Sim) every charge and delivery delay is
// an exact virtual duration instead, and senders charge independently:
// wire contention would serialize in mutex-acquisition order, which is
// scheduling-dependent, so the simulated network is modeled as
// switched (contention-free) to keep runs deterministic.
type inprocTransport struct {
	*mailbox // this rank's own: the receive half, the clock, Close
	rank     int
	boxes    []*mailbox // every rank's, shared across the world: the send path
	model    *Model
	topo     *Topology // group structure; nil on flat worlds
	inter    *Model    // prices cross-group messages; non-nil only with topo

	// The shared media, real clock only (nil slices on a simulated
	// clock or a free network). A flat world has one wire (wires[0]).
	// A two-level world (inter != nil) has one wire per group plus a
	// backbone wire between groups: intra-group traffic in different
	// groups no longer contends — the fast links are independent — while
	// all inter-group traffic serializes on the slow shared link.
	wires     []*sync.Mutex
	interWire *sync.Mutex
}

// newInprocWorld builds the in-process world from validated options.
// Of the options it honors Model, Clock, Topology and InterModel; the
// socket tunings have nothing to tune here.
func newInprocWorld(p int, opts TransportOptions) ([]*Comm, error) {
	model, topo, inter := opts.Model, opts.Topology, opts.InterModel
	boxes := make([]*mailbox, p)
	for i := range boxes {
		boxes[i] = newMailbox(opts.Clock)
	}
	var wires []*sync.Mutex
	var interWire *sync.Mutex
	if boxes[0].sim == nil {
		switch {
		case inter != nil:
			// Two-level world: independent fast media inside the
			// groups, one shared slow backbone between them.
			wires = make([]*sync.Mutex, topo.Groups())
			for g := range wires {
				wires[g] = new(sync.Mutex)
			}
			interWire = new(sync.Mutex)
		case model != nil:
			wires = []*sync.Mutex{new(sync.Mutex)}
		}
	}
	comms := make([]*Comm, p)
	for i := range comms {
		c, err := newComm(i, p, &inprocTransport{
			mailbox: boxes[i], rank: i, boxes: boxes,
			model: model, topo: topo, inter: inter,
			wires: wires, interWire: interWire,
		})
		if err != nil {
			return nil, err
		}
		comms[i] = c
	}
	return comms, nil
}

// modelFor returns the model pricing a message from this rank to dst:
// the inter-group model when one is set and dst lies in another group,
// the base model otherwise (including always on a flat world).
func (t *inprocTransport) modelFor(dst int) *Model {
	if t.inter != nil && !t.topo.SameGroup(t.rank, dst) {
		return t.inter
	}
	return t.model
}

// wireFor returns the medium a message to dst occupies: the single
// flat-world wire, this rank's group wire, or the inter-group backbone.
// nil means contention-free (free network or simulated clock).
func (t *inprocTransport) wireFor(dst int) *sync.Mutex {
	if t.interWire == nil {
		if len(t.wires) == 0 {
			return nil
		}
		return t.wires[0]
	}
	if !t.topo.SameGroup(t.rank, dst) {
		return t.interWire
	}
	return t.wires[t.topo.GroupOf(t.rank)]
}

// transmitOn occupies wire w for the message's cost under model m: the
// shared medium on the real clock, an independent per-sender charge on
// a simulated one (see the type comment).
func (t *inprocTransport) transmitOn(m *Model, w *sync.Mutex, n int) {
	if m == nil {
		return
	}
	if t.sim != nil || w == nil {
		m.charge(t.clock, n)
		return
	}
	w.Lock()
	m.charge(t.clock, n)
	w.Unlock()
}

// transmit occupies the medium a message to dst travels on, for its
// modeled cost under the model pricing that pair.
func (t *inprocTransport) transmit(dst, n int) {
	t.transmitOn(t.modelFor(dst), t.wireFor(dst), n)
}

// dispatch hands a payload to the destination's mailbox, which copies it
// into a buffer recycled from its own pool — so a steady-state
// send/receive/Release loop allocates nothing — and holds it back for
// the delivery delay of the model pricing the pair.
func (t *inprocTransport) dispatch(dst, tag int, data []byte) error {
	return t.boxes[dst].deliver(t.rank, tag, data, t.modelFor(dst).delay())
}

func (t *inprocTransport) Send(dst, tag int, data []byte) error {
	t.transmit(dst, len(data))
	return t.dispatch(dst, tag, data)
}

// Multicast delivers to all destinations for a single network charge
// per medium when the modeled medium supports it; otherwise it charges
// per destination like repeated sends. On a two-level world the
// destinations split into an intra-group part (priced on this group's
// fast medium) and an inter-group part (priced on the slow backbone),
// each honoring its own model's Multicast capability. It returns the
// copies charged, summed over the media.
func (t *inprocTransport) Multicast(dsts []int, tag int, data []byte) (int, error) {
	var copies int
	if t.inter == nil {
		// One medium — the flat behaviour.
		copies = t.transmitCopies(t.model, t.wireFor(t.rank), len(dsts), len(data))
	} else {
		intra, inter := 0, 0
		for _, d := range dsts {
			if t.topo.SameGroup(t.rank, d) {
				intra++
			} else {
				inter++
			}
		}
		if intra > 0 {
			copies += t.transmitCopies(t.model, t.wireFor(t.rank), intra, len(data))
		}
		if inter > 0 {
			copies += t.transmitCopies(t.inter, t.interWire, inter, len(data))
		}
	}
	for _, d := range dsts {
		if err := t.dispatch(d, tag, data); err != nil {
			return 0, err
		}
	}
	return copies, nil
}

// transmitCopies occupies medium m for an n-byte message to k
// destinations: once when the medium multicasts (a nil model is free
// and counts as one copy), once per destination otherwise. It returns
// the copies charged.
func (t *inprocTransport) transmitCopies(m *Model, w *sync.Mutex, k, n int) int {
	if m == nil || m.Multicast {
		k = 1
	}
	for range k {
		t.transmitOn(m, w, n)
	}
	return k
}

// TransportStats reports no counters: shared memory has no wire.
func (t *inprocTransport) TransportStats() (TransportStats, bool) {
	return TransportStats{}, false
}
