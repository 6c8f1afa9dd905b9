package comm

// The "hybrid" transport composes the two built-in transports along a
// group topology: ranks that share a group exchange messages through
// shared in-process mailboxes (one department's fast switched LAN —
// here, literally memory), while ranks in different groups ride the
// full TCP mesh (the slow link between departments). It is the runtime
// shape the paper's nonuniform environment calls for: the transport
// itself is two-level, not just the cost model.
//
// Each endpoint embeds a full tcpTransport, so the socket machinery —
// batching writers, readers, heartbeats, stats, kill injection — works
// unchanged for the inter-group traffic, and receives of both kinds
// drain from the one mailbox the socket readers already feed.
// Per-(src, tag) FIFO holds because any (src, dst) pair uses exactly
// one path.

import "fmt"

func init() {
	register("hybrid", newHybridWorld, needsRealClock|needsTopology)
}

// hybridTransport overrides the TCP endpoint's Send to route
// intra-group messages through the destination's mailbox directly,
// skipping the sockets. Everything else — receives, stats, liveness,
// kill, close — is the embedded TCP endpoint's.
type hybridTransport struct {
	*tcpTransport
	peers []*tcpTransport // all endpoints, indexed by rank, for mailbox access
	topo  *Topology
}

// newHybridWorld builds the hybrid world: a TCP mesh for the
// inter-group traffic, with intra-group sends rerouted through shared
// memory. The topology is mandatory (the registry's needsTopology, so
// CheckOpen refuses a world without one before this runs): without one
// there is no "intra" to route differently, and the caller wants plain
// "tcp".
func newHybridWorld(p int, opts TransportOptions) ([]*Comm, func() error, error) {
	transports, closer, err := newTCPTransports(p, opts)
	if err != nil {
		return nil, nil, err
	}
	comms := make([]*Comm, p)
	for i := range comms {
		c, err := newComm(i, p, &hybridTransport{
			tcpTransport: transports[i],
			peers:        transports,
			topo:         opts.Topology,
		})
		if err != nil {
			closer()
			return nil, nil, err
		}
		comms[i] = c
	}
	return comms, closer, nil
}

func (t *hybridTransport) Send(dst, tag int, data []byte) error {
	if !t.topo.SameGroup(t.rank, dst) {
		return t.tcpTransport.Send(dst, tag, data)
	}
	if tag == hbTag {
		return fmt.Errorf("comm: tag %#x is reserved for transport heartbeats", tag)
	}
	t.mu.Lock()
	killed, closed := t.killed, t.closed
	t.mu.Unlock()
	if killed {
		return ErrKilled
	}
	if closed {
		return ErrClosed
	}
	// Intra-group messages still pay the (fast) model for their group's
	// medium, then land in the destination's mailbox without touching a
	// socket; the destination's dispatch applies any modeled delivery
	// delay, exactly as for a socket arrival.
	if m := t.modelFor(dst); m != nil {
		m.charge(t.clock, len(data))
	}
	return t.peers[dst].dispatch(t.rank, tag, data)
}
