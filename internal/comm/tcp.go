package comm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stance/internal/vtime"
)

// maxFrame bounds a single message payload on the TCP transport.
const maxFrame = 1 << 30

// tcpTransport runs the tagged-message protocol over loopback TCP
// sockets, rebuilt on the gofast transport patterns: a full mesh of
// connections; per-peer bounded outboxes drained by writer goroutines
// that coalesce queued messages into single framed batch writes
// (optionally compressed per batch); reader goroutines that split
// batches back into sections and feed the shared mailbox; optional
// heartbeat traffic with read deadlines, so a silent peer is declared
// dead at the transport level and blocked receives fail with
// ErrPeerDead; and per-connection stat counters (n_tx, n_rx,
// n_flushes, ...) summed into TransportStats.
//
// Sub-worlds multiplex over the same mesh for free: a Comm.Sub
// endpoint translates onto its root endpoint, so every sub-world and
// jobsvc grant shares the root's socket pair per peer — there is one
// mesh per world, never one per sub-world.
type tcpTransport struct {
	*mailbox // the receive half, fed by the socket readers; its clock is always real (see newTCPWorld)
	rank     int
	size     int
	opts     TransportOptions // Model/InterModel are the sender-side cost models
	codec    uint8

	stats tcpStats

	mu     sync.Mutex
	outs   []*outbox // per-peer outgoing queues (nil for self)
	conns  []net.Conn
	closed bool
	killed bool

	hbStop chan struct{}
	hbOnce sync.Once
}

// tcpStats are one endpoint's wire counters, updated lock-free by the
// writer and reader goroutines.
type tcpStats struct {
	nTx, nRx, nFlushes, nTxByte, nRxByte, nDroppedHB, nTxBackpressure atomic.Int64
}

// TransportStats sums the endpoint's per-connection wire counters.
func (t *tcpTransport) TransportStats() (TransportStats, bool) {
	return TransportStats{
		NTx:             t.stats.nTx.Load(),
		NRx:             t.stats.nRx.Load(),
		NFlushes:        t.stats.nFlushes.Load(),
		NTxByte:         t.stats.nTxByte.Load(),
		NRxByte:         t.stats.nRxByte.Load(),
		NDroppedHB:      t.stats.nDroppedHB.Load(),
		NTxBackpressure: t.stats.nTxBackpressure.Load(),
	}, true
}

// outbox accumulates one peer's outgoing sections directly into a
// pending batch buffer, double-buffered against the writer goroutine:
// senders append sections in place (no per-message allocation, no
// queue), the writer swaps the pending buffer out, frames it and hands
// the drained buffer back. Backpressure is two-fold, both counted: a
// high-water mark in messages, and the batch byte cap — a sender that
// outruns the wire blocks at either bound instead of growing memory
// without limit. Heartbeat pushes never block — under backpressure the
// data traffic itself proves liveness.
type outbox struct {
	mu    sync.Mutex
	ready *sync.Cond // signaled when a section or close arrives
	space *sync.Cond // signaled when the writer swaps the batch out

	buf      []byte        // pending batch: sections appended in place
	n        int           // sections in buf
	spare    []byte        // drained buffer returned by the writer
	hwm      int           // high-water mark in sections
	maxBytes int           // batch byte cap
	stall    *atomic.Int64 // the transport's backpressure counter

	closed bool
}

func newOutbox(hwm, maxBytes int, stall *atomic.Int64) *outbox {
	o := &outbox{hwm: hwm, maxBytes: maxBytes, stall: stall}
	o.ready = sync.NewCond(&o.mu)
	o.space = sync.NewCond(&o.mu)
	return o
}

// fullLocked reports whether a section of secLen more bytes must wait
// for the writer. A batch always carries at least one section, so an
// empty buffer admits any size.
func (o *outbox) fullLocked(secLen int) bool {
	if len(o.buf) == 0 {
		return false
	}
	return (o.hwm > 0 && o.n >= o.hwm) || len(o.buf)+secLen > o.maxBytes
}

// push appends one tagged section to the pending batch, blocking at
// the high-water mark or the batch byte cap until the writer drains.
func (o *outbox) push(tag int, data []byte) error {
	secLen := sectionHdr + len(data)
	o.mu.Lock()
	defer o.mu.Unlock()
	stalled := false
	for o.fullLocked(secLen) && !o.closed {
		if !stalled {
			stalled = true
			if o.stall != nil {
				o.stall.Add(1)
			}
		}
		o.space.Wait()
	}
	if o.closed {
		return ErrClosed
	}
	o.buf = appendTCPSection(o.buf, tag, data)
	o.n++
	o.ready.Signal()
	return nil
}

// tryPush appends a section only if there is room — the heartbeat
// path, which must never block behind backpressured data traffic.
func (o *outbox) tryPush(tag int, data []byte) {
	o.mu.Lock()
	if !o.closed && !o.fullLocked(sectionHdr+len(data)) {
		o.buf = appendTCPSection(o.buf, tag, data)
		o.n++
		o.ready.Signal()
	}
	o.mu.Unlock()
}

// popBatch blocks until sections are pending, optionally lingers one
// flush period to coalesce more, then swaps the whole pending batch
// out. The writer returns the buffer through recycle once framed.
// ok=false means the outbox is closed and fully drained.
func (o *outbox) popBatch(flush time.Duration, clock vtime.Clock) ([]byte, bool) {
	o.mu.Lock()
	for len(o.buf) == 0 && !o.closed {
		o.ready.Wait()
	}
	if len(o.buf) == 0 {
		o.mu.Unlock()
		return nil, false
	}
	if flush > 0 && !o.closed {
		// Linger: let the sender append more sections so they ride this
		// same framed write.
		o.mu.Unlock()
		clock.Sleep(flush)
		o.mu.Lock()
	}
	batch := o.buf
	o.buf = o.spare[:0]
	o.spare = nil
	o.n = 0
	o.space.Broadcast()
	o.mu.Unlock()
	return batch, true
}

// recycle hands a drained batch buffer back for the next swap.
func (o *outbox) recycle(batch []byte) {
	o.mu.Lock()
	if o.spare == nil || cap(batch) > cap(o.spare) {
		o.spare = batch[:0]
	}
	o.mu.Unlock()
}

// close marks the outbox closed; the writer drains what is already
// pending, then exits.
func (o *outbox) close() {
	o.mu.Lock()
	o.closed = true
	o.ready.Broadcast()
	o.space.Broadcast()
	o.mu.Unlock()
}

// closeDiscard closes the outbox and drops everything pending — the
// crash path (killed endpoints flush nothing) and the dead-peer path
// (frames to a dead peer have nowhere to go).
func (o *outbox) closeDiscard() {
	o.mu.Lock()
	o.closed = true
	o.buf = o.buf[:0]
	o.n = 0
	o.ready.Broadcast()
	o.space.Broadcast()
	o.mu.Unlock()
}

// newTCPWorld builds the TCP world. The model's Latency and Bandwidth
// charge the sender's clock before each socket write, so a zero-Delay
// model prices messages identically on inproc and tcp; Model.Delay is
// applied by the receiving mailbox, additive to the real wire time. One
// thing real sockets cannot do, and Open rejects loudly instead of
// approximating: a simulated clock (the registry marks "tcp" and
// "hybrid" as needing the real one). Virtual time is an inproc-only
// feature.
func newTCPWorld(p int, opts TransportOptions) ([]*Comm, func() error, error) {
	transports, closer, err := newTCPTransports(p, opts)
	if err != nil {
		return nil, nil, err
	}
	comms := make([]*Comm, p)
	for i := range comms {
		c, err := newComm(i, p, transports[i])
		if err != nil {
			closer()
			return nil, nil, err
		}
		comms[i] = c
	}
	return comms, closer, nil
}

// newTCPTransports builds the endpoints and the socket mesh of a TCP
// world without wrapping them in Comms — the shared machinery of the
// "tcp" transport and the "hybrid" transport, which embeds these
// endpoints and reroutes intra-group traffic off their sockets.
func newTCPTransports(p int, opts TransportOptions) ([]*tcpTransport, func() error, error) {
	opts = opts.withDefaults()
	codec, err := codecOf(opts.Compression)
	if err != nil {
		return nil, nil, err
	}
	transports := make([]*tcpTransport, p)
	for i := range transports {
		transports[i] = &tcpTransport{
			mailbox: newMailbox(opts.Clock),
			rank:    i,
			size:    p,
			opts:    opts,
			codec:   codec,
			outs:    make([]*outbox, p),
			conns:   make([]net.Conn, p),
		}
	}
	// Rank i listens; ranks j > i dial i. The dialer announces its
	// rank in the first 4 bytes.
	listeners := make([]net.Listener, p)
	for i := 0; i < p; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(listeners)
			return nil, nil, fmt.Errorf("comm: listen: %w", err)
		}
		listeners[i] = l
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 2*p)
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < p-1-i; n++ { // one connection from each higher-ranked dialer
				if d, ok := listeners[i].(interface{ SetDeadline(time.Time) error }); ok {
					d.SetDeadline(time.Now().Add(opts.AcceptTimeout))
				}
				conn, err := listeners[i].Accept()
				if err != nil {
					errCh <- err
					return
				}
				var hdr [4]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					errCh <- err
					return
				}
				peer := int(binary.LittleEndian.Uint32(hdr[:]))
				if peer < 0 || peer >= p {
					errCh <- fmt.Errorf("comm: bad peer rank %d", peer)
					return
				}
				transports[i].attach(peer, conn)
			}
		}(i)
	}
	for j := 0; j < p; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for i := 0; i < j; i++ { // rank j dials every lower rank
				conn, err := net.DialTimeout("tcp", listeners[i].Addr().String(), opts.DialTimeout)
				if err != nil {
					errCh <- err
					return
				}
				var hdr [4]byte
				binary.LittleEndian.PutUint32(hdr[:], uint32(j))
				if _, err := conn.Write(hdr[:]); err != nil {
					errCh <- err
					return
				}
				transports[j].attach(i, conn)
			}
		}(j)
	}
	wg.Wait()
	close(errCh)
	closeListeners(listeners)
	if err := <-errCh; err != nil {
		for _, t := range transports {
			t.Close()
		}
		return nil, nil, fmt.Errorf("comm: tcp mesh setup: %w", err)
	}
	if opts.HeartbeatInterval > 0 {
		for _, t := range transports {
			t.hbStop = make(chan struct{})
			go t.heartbeater()
		}
	}
	closer := func() error {
		var first error
		for _, t := range transports {
			if err := t.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return transports, closer, nil
}

func closeListeners(ls []net.Listener) {
	for _, l := range ls {
		if l != nil {
			l.Close()
		}
	}
}

// attach wires a peer connection: a bounded outbox drained by a
// batching writer, and a reader splitting framed batches into the
// mailbox.
func (t *tcpTransport) attach(peer int, conn net.Conn) {
	out := newOutbox(t.opts.OutboxHighWater, t.opts.BatchBytes, &t.stats.nTxBackpressure)
	t.mu.Lock()
	t.outs[peer] = out
	t.conns[peer] = conn
	t.mu.Unlock()
	go t.writer(conn, out)
	go t.reader(peer, conn)
}

// writer drains one peer's outbox in batches: every pass coalesces the
// queued sections (up to the batch cap, lingering one flush period
// when configured) into a single framed — optionally compressed —
// write. One goroutine per connection, so sends never block the
// application on the socket.
func (t *tcpTransport) writer(conn net.Conn, out *outbox) {
	comp := newTCPCompressor(t.codec)
	var wire []byte
	for {
		batch, ok := out.popBatch(t.opts.FlushPeriod, t.clock)
		if !ok {
			return
		}
		var err error
		wire, err = comp.frame(wire[:0], batch)
		out.recycle(batch)
		if err != nil {
			return
		}
		// Count before the syscall: the receiver can hold the data the
		// moment Write hands it to the kernel, and the counters must
		// never be observed behind the data they describe. A failed
		// write kills the connection anyway.
		t.stats.nFlushes.Add(1)
		t.stats.nTxByte.Add(int64(len(wire)))
		if _, err := conn.Write(wire); err != nil {
			return
		}
	}
}

// reader pumps one peer's framed batches into the mailbox. With
// heartbeats enabled it also runs the liveness protocol: every read
// arms a deadline of one heartbeat interval, an expiry with no bytes
// read counts as a missed heartbeat, and HeartbeatMiss consecutive
// misses — or an unexpected end of stream — declare the peer dead.
func (t *tcpTransport) reader(peer int, conn net.Conn) {
	hb := t.opts.HeartbeatInterval
	misses := 0
	var hdr [frameHdr]byte
	var body, scratch []byte
	// The buffered reader turns the header+body syscall pair into one
	// read for small frames, and drains back-to-back frames that arrived
	// together in a single syscall. Deadlines still arm on conn: a
	// timeout with nothing buffered surfaces as a zero-byte ReadFull,
	// exactly the heartbeat-miss signal below.
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		if t.isShutdown() {
			return
		}
		if hb > 0 {
			conn.SetReadDeadline(time.Now().Add(hb))
		}
		n, err := io.ReadFull(br, hdr[:])
		if err != nil {
			var ne net.Error
			if hb > 0 && n == 0 && errors.As(err, &ne) && ne.Timeout() {
				misses++
				t.stats.nDroppedHB.Add(1)
				if misses >= t.opts.HeartbeatMiss {
					t.declareDead(peer)
					return
				}
				continue
			}
			// EOF, reset, or a mid-header expiry: the stream is gone or
			// desynchronized. With liveness on, that is a death signal
			// too (unless this endpoint is the one shutting down).
			if hb > 0 && !t.isShutdown() {
				t.declareDead(peer)
			}
			return
		}
		misses = 0
		codec, blen, err := decodeTCPHeader(hdr[:])
		if err != nil {
			if hb > 0 && !t.isShutdown() {
				t.declareDead(peer)
			}
			return
		}
		if cap(body) < blen {
			body = make([]byte, blen)
		}
		body = body[:blen]
		if hb > 0 {
			conn.SetReadDeadline(time.Now().Add(hb))
		}
		if _, err := io.ReadFull(br, body); err != nil {
			if hb > 0 && !t.isShutdown() {
				t.declareDead(peer)
			}
			return
		}
		t.stats.nRxByte.Add(int64(frameHdr + blen))
		sections, err := decodeTCPBody(codec, body, &scratch)
		if err != nil {
			if hb > 0 && !t.isShutdown() {
				t.declareDead(peer)
			}
			return
		}
		err = forEachTCPSection(sections, func(tag int, payload []byte) error {
			if tag == hbTag {
				return nil // pure liveness traffic
			}
			// The mailbox copies the section into a buffer from its pool,
			// so released receive buffers cycle back to the socket reader.
			if err := t.dispatch(peer, tag, payload); err != nil {
				return err
			}
			t.stats.nRx.Add(1)
			return nil
		})
		if err != nil {
			return
		}
	}
}

// modelFor returns the model pricing a message between this rank and
// peer under the world's topology: the inter-group model when one is
// set and peer lies in another group, the base model otherwise.
func (t *tcpTransport) modelFor(peer int) *Model {
	return t.opts.pairModel(t.rank, peer)
}

// dispatch hands a payload from src to this rank's mailbox, which copies
// it and holds it back for the delivery delay of the model pricing that
// source.
func (t *tcpTransport) dispatch(src, tag int, data []byte) error {
	return t.deliver(src, tag, data, t.modelFor(src).delay())
}

// heartbeater queues a heartbeat section to every peer each interval.
// Heartbeats ride the normal batching path (they are just sections),
// and never block behind backpressure — when an outbox is full, the
// data traffic draining it proves liveness by itself.
func (t *tcpTransport) heartbeater() {
	ticker := time.NewTicker(t.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.hbStop:
			return
		case <-ticker.C:
			for peer := 0; peer < t.size; peer++ {
				if peer == t.rank {
					continue
				}
				t.mu.Lock()
				out := t.outs[peer]
				t.mu.Unlock()
				if out != nil {
					out.tryPush(hbTag, nil)
				}
			}
		}
	}
}

// declareDead records a transport-level death of peer: pending and
// future receives from it fail with ErrPeerDead, its connection closes
// (unblocking a writer stuck on a full socket), and its outbox drops
// what it still holds.
func (t *tcpTransport) declareDead(peer int) {
	t.mu.Lock()
	conn := t.conns[peer]
	out := t.outs[peer]
	t.mu.Unlock()
	t.markPeerDead(peer)
	if out != nil {
		out.closeDiscard()
	}
	if conn != nil {
		conn.Close()
	}
}

func (t *tcpTransport) isShutdown() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed || t.killed
}

// stopHeartbeat stops the heartbeater, if one was started.
func (t *tcpTransport) stopHeartbeat() {
	if t.hbStop != nil {
		t.hbOnce.Do(func() { close(t.hbStop) })
	}
}

// Kill crash-injects this endpoint: the rank goes silent. Its queued
// and future sends vanish (no flush — a crashed process flushes
// nothing), its receives fail with ErrKilled, and its heartbeats stop
// — but its connections stay open, so peers cannot see a clean end of
// stream and must detect the death the way a real network partition is
// detected: by missed heartbeats. Close later reaps the connections.
func (t *tcpTransport) Kill() {
	t.mu.Lock()
	if t.closed || t.killed {
		t.mu.Unlock()
		return
	}
	t.killed = true
	outs := append([]*outbox(nil), t.outs...)
	t.mu.Unlock()
	t.stopHeartbeat()
	for _, o := range outs {
		if o != nil {
			o.closeDiscard()
		}
	}
	t.closeWith(ErrKilled)
}

// KillEndpoint crash-injects the transport under c (the root endpoint,
// for sub-world communicators): the rank goes silent without closing
// its sockets, so peers running heartbeats detect the death by timeout
// — the crash-stop failure model over a real wire. It fails on
// transports without kill support (the in-process transport's injected
// kills live in the session layer instead).
func KillEndpoint(c *Comm) error {
	type killer interface{ Kill() }
	if k, ok := c.Root().tr.(killer); ok {
		k.Kill()
		return nil
	}
	return fmt.Errorf("comm: transport does not support kill injection")
}

func (t *tcpTransport) Send(dst, tag int, data []byte) error {
	if len(data) > maxFrame {
		return fmt.Errorf("comm: message of %d bytes exceeds frame limit", len(data))
	}
	if tag == hbTag {
		return fmt.Errorf("comm: tag %#x is reserved for transport heartbeats", tag)
	}
	t.mu.Lock()
	killed, closed := t.killed, t.closed
	var out *outbox
	if dst != t.rank {
		out = t.outs[dst]
	}
	t.mu.Unlock()
	if killed {
		return ErrKilled
	}
	if closed || (dst != t.rank && out == nil) {
		return ErrClosed
	}
	// Sender-side model charge, mirroring the inproc transport's cost
	// accounting so a latency-priced experiment reads the same on both
	// transports; a cross-group destination pays the inter-group model
	// instead. Real sockets are point-to-point, so there is no
	// shared-wire serialization here — each sender charges its own
	// clock.
	if m := t.modelFor(dst); m != nil {
		m.charge(t.clock, len(data))
	}
	if dst == t.rank {
		return t.dispatch(t.rank, tag, data)
	}
	if err := out.push(tag, data); err != nil {
		return err
	}
	t.stats.nTx.Add(1)
	return nil
}

func (t *tcpTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	outs := append([]*outbox(nil), t.outs...)
	conns := append([]net.Conn(nil), t.conns...)
	t.mu.Unlock()
	t.stopHeartbeat()
	var errs []error
	for _, o := range outs {
		if o != nil {
			o.close()
		}
	}
	// Give writers a moment to flush queued frames before tearing the
	// connections down; readers end when peers close.
	time.Sleep(10 * time.Millisecond)
	for _, c := range conns {
		if c != nil {
			if err := c.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
				errs = append(errs, err)
			}
		}
	}
	t.mailbox.Close()
	return errors.Join(errs...)
}
