package comm

import (
	"fmt"
	"time"

	"stance/internal/vtime"
)

// TransportOptions is the composable transport configuration passed to
// Open: the model and clock, and the fields that tune the socket
// transports (today: "tcp"). The zero value is valid and means "library
// defaults" everywhere; factories ignore fields that do not apply to
// them (the in-process transport has no sockets to batch or
// heartbeat). Open validates the options before building the world, so
// an inconsistent tuning fails loudly at one place.
type TransportOptions struct {
	// Model is the network cost model (nil means a free network). Every
	// transport charges Latency/Bandwidth on the sender's clock and holds
	// a message back for Delay at the receiving mailbox; on the socket
	// transports both are additive to the real wire time.
	Model *Model
	// Clock is the time source for charges, delays, timeouts and all
	// runtime measurement (nil means the real clock). A vtime.Sim runs
	// the world in deterministic virtual time; only the in-process
	// transport supports it — real sockets deliver on the wall clock,
	// which a virtual clock cannot see.
	Clock vtime.Clock

	// Topology assigns ranks to node groups, turning the flat world
	// into a two-level one (nil means flat). Its size must equal the
	// world size. With a topology set, every endpoint counts its
	// inter-group messages and bytes (Comm.InterStats,
	// World.InterGroupStats), the in-process and TCP transports price a
	// message by whether its endpoints share a group (see InterModel),
	// and the "hybrid" transport — which requires a topology — routes
	// intra-group traffic through shared memory and inter-group traffic
	// over sockets.
	Topology *Topology
	// InterModel prices messages whose endpoints lie in different
	// groups; Model keeps pricing intra-group (and flat-world) traffic.
	// nil means inter-group traffic costs the same as intra-group.
	// Requires Topology.
	InterModel *Model

	// FlushPeriod is how long a connection's writer waits after the
	// first queued message to coalesce more into the same framed write
	// (gofast-style tx batching). Zero keeps batching opportunistic:
	// the writer sends immediately, still draining everything already
	// queued into one write. Must stay below HeartbeatInterval when
	// both are set, or flush latency would masquerade as missed
	// heartbeats.
	FlushPeriod time.Duration
	// BatchBytes caps the payload bytes one framed write may carry
	// (default 64 KiB). A batch always carries at least one message, so
	// a single message larger than the cap still goes out alone;
	// setting BatchBytes to 1 therefore degrades to one write per
	// message — the unbatched baseline the benchmarks compare against.
	BatchBytes int
	// Compression selects a per-batch codec: "" or "none", "gzip", or
	// "flate". The codec is tagged in each frame header, so receivers
	// need no configuration agreement; tiny batches are sent raw even
	// when a codec is configured.
	Compression string
	// HeartbeatInterval enables connection liveness: every interval
	// each endpoint sends a heartbeat section to every peer, and
	// readers arm a read deadline of the same interval. Zero (the
	// default) disables heartbeats and read deadlines.
	HeartbeatInterval time.Duration
	// HeartbeatMiss is how many consecutive read-deadline expiries
	// declare a peer dead (default 3). A dead peer's pending and future
	// receives fail with ErrPeerDead — which unwraps to ErrTimeout, so
	// checkpoint failure detection treats transport-level liveness
	// exactly like a missed protocol heartbeat, only sooner.
	HeartbeatMiss int
	// OutboxHighWater bounds each per-peer send queue in messages
	// (default 4096). A sender that runs ahead of the wire blocks at
	// the mark until the writer drains, and each stall increments the
	// n_tx_backpressure counter — a stalled receiver shows up in stats
	// instead of growing memory without limit.
	OutboxHighWater int
	// DialTimeout and AcceptTimeout bound the mesh construction:
	// how long one dial, and one accept, may take during Open
	// (default 10s each).
	DialTimeout   time.Duration
	AcceptTimeout time.Duration
}

// Transport tuning defaults, applied by withDefaults.
const (
	defaultBatchBytes      = 64 << 10
	defaultHeartbeatMiss   = 3
	defaultOutboxHighWater = 4096
	defaultMeshTimeout     = 10 * time.Second
)

// Validate checks the options for consistency. Open calls it before
// building a world; factories may assume validated options.
func (o TransportOptions) Validate() error {
	if o.FlushPeriod < 0 {
		return fmt.Errorf("comm: negative flush period %v", o.FlushPeriod)
	}
	if o.BatchBytes < 0 {
		return fmt.Errorf("comm: negative batch cap %d", o.BatchBytes)
	}
	if o.BatchBytes > maxFrame {
		return fmt.Errorf("comm: batch cap %d exceeds the %d-byte frame limit", o.BatchBytes, maxFrame)
	}
	if _, err := codecOf(o.Compression); err != nil {
		return err
	}
	if o.HeartbeatInterval < 0 {
		return fmt.Errorf("comm: negative heartbeat interval %v", o.HeartbeatInterval)
	}
	if o.HeartbeatMiss < 0 {
		return fmt.Errorf("comm: negative heartbeat miss budget %d", o.HeartbeatMiss)
	}
	if o.HeartbeatInterval > 0 && o.FlushPeriod >= o.HeartbeatInterval {
		return fmt.Errorf("comm: flush period %v must stay below the heartbeat interval %v (flush latency would read as missed heartbeats)",
			o.FlushPeriod, o.HeartbeatInterval)
	}
	if o.OutboxHighWater < 0 {
		return fmt.Errorf("comm: negative outbox high-water mark %d", o.OutboxHighWater)
	}
	if o.DialTimeout < 0 || o.AcceptTimeout < 0 {
		return fmt.Errorf("comm: negative mesh deadline (dial %v, accept %v)", o.DialTimeout, o.AcceptTimeout)
	}
	for _, m := range [2]*Model{o.Model, o.InterModel} {
		if m != nil && (m.Latency < 0 || m.Delay < 0 || !(m.Bandwidth >= 0)) {
			return fmt.Errorf("comm: network model latency %v, bandwidth %g, delay %v; want each >= 0", m.Latency, m.Bandwidth, m.Delay)
		}
	}
	if o.InterModel != nil && o.Topology == nil {
		return fmt.Errorf("comm: InterModel requires a Topology (there is no inter-group traffic to price on a flat world)")
	}
	return nil
}

// pairModel returns the model pricing a message between two ranks
// under the options' topology: InterModel when one is set and the
// ranks lie in different groups, Model otherwise.
func (o TransportOptions) pairModel(src, dst int) *Model {
	if o.InterModel != nil && !o.Topology.SameGroup(src, dst) {
		return o.InterModel
	}
	return o.Model
}

// withDefaults resolves zero tuning fields to the library defaults.
// Model and Clock stay as given (nil is meaningful for both).
func (o TransportOptions) withDefaults() TransportOptions {
	if o.BatchBytes == 0 {
		o.BatchBytes = defaultBatchBytes
	}
	if o.HeartbeatMiss == 0 {
		o.HeartbeatMiss = defaultHeartbeatMiss
	}
	if o.OutboxHighWater == 0 {
		o.OutboxHighWater = defaultOutboxHighWater
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = defaultMeshTimeout
	}
	if o.AcceptTimeout == 0 {
		o.AcceptTimeout = defaultMeshTimeout
	}
	return o
}

// TransportStats are the per-connection wire counters a stat-reporting
// transport accumulates (gofast-style), summed over an endpoint's
// connections. NTx/NRx count tagged messages entering and leaving the
// wire, NFlushes counts framed writes (so NTx/NFlushes is the achieved
// batching factor), NTxByte/NRxByte count wire bytes including frame
// headers and after compression, NDroppedHB counts read-deadline
// expiries (missed heartbeats), and NTxBackpressure counts sends that
// stalled at an outbox high-water mark.
type TransportStats struct {
	NTx             int64 `json:"n_tx"`
	NRx             int64 `json:"n_rx"`
	NFlushes        int64 `json:"n_flushes"`
	NTxByte         int64 `json:"n_txbyte"`
	NRxByte         int64 `json:"n_rxbyte"`
	NDroppedHB      int64 `json:"n_dropped_hb"`
	NTxBackpressure int64 `json:"n_tx_backpressure"`
}

// Add accumulates o into s.
func (s *TransportStats) Add(o TransportStats) {
	s.NTx += o.NTx
	s.NRx += o.NRx
	s.NFlushes += o.NFlushes
	s.NTxByte += o.NTxByte
	s.NRxByte += o.NRxByte
	s.NDroppedHB += o.NDroppedHB
	s.NTxBackpressure += o.NTxBackpressure
}

// Sub returns s minus o, for before/after deltas.
func (s TransportStats) Sub(o TransportStats) TransportStats {
	return TransportStats{
		NTx:             s.NTx - o.NTx,
		NRx:             s.NRx - o.NRx,
		NFlushes:        s.NFlushes - o.NFlushes,
		NTxByte:         s.NTxByte - o.NTxByte,
		NRxByte:         s.NRxByte - o.NRxByte,
		NDroppedHB:      s.NDroppedHB - o.NDroppedHB,
		NTxBackpressure: s.NTxBackpressure - o.NTxBackpressure,
	}
}

// TransportStats returns the endpoint's wire counters when its medium
// has a wire (the socket transports do; in-process endpoints report
// ok=false). Sub-world endpoints report their root endpoint's counters.
func (c *Comm) TransportStats() (TransportStats, bool) { return c.tr.TransportStats() }

// TransportStats sums the wire counters of every endpoint that reports
// them; ok=false means the world's transport keeps none.
func (w *World) TransportStats() (TransportStats, bool) {
	var sum TransportStats
	any := false
	for _, c := range w.comms {
		if s, ok := c.TransportStats(); ok {
			sum.Add(s)
			any = true
		}
	}
	return sum, any
}
