package comm

import (
	"errors"
	"fmt"
	"math"
	"time"

	"stance/internal/vtime"
)

// ErrTimeout is returned by RecvTimeout when no message arrives in
// time.
var ErrTimeout = errors.New("comm: receive timed out")

// ErrPeerDead is returned by receives that would block on a peer the
// transport's liveness layer has declared dead (missed heartbeats on
// the TCP transport). It wraps ErrTimeout, so failure-detection code
// matching errors.Is(err, ErrTimeout) sees a transport-level death
// exactly like a protocol-level timeout — just without waiting the
// protocol deadline out.
var ErrPeerDead = fmt.Errorf("comm: peer declared dead by transport liveness: %w", ErrTimeout)

// Model emulates the cost of a shared-medium network for the
// in-process transport: each message pays a fixed latency plus its
// size over the bandwidth, and the whole world shares one wire, so
// concurrent transmissions from different workstations serialize —
// the defining behaviour of the paper's shared Ethernet. A nil *Model
// means a free (infinitely fast) network. Open rejects a negative
// Latency or Delay and a negative or NaN Bandwidth.
type Model struct {
	// Latency is the fixed per-message cost (setup + wire latency).
	// It blocks the sender while it occupies the shared wire.
	Latency time.Duration
	// Bandwidth is the transfer rate in bytes per second; zero means
	// infinite.
	Bandwidth float64
	// Multicast reports whether the medium delivers one message to
	// many receivers for a single charge (Ethernet/ATM multicast,
	// paper Section 3.6).
	Multicast bool
	// Delay is a one-way delivery delay: after the wire releases, the
	// message stays invisible to the receiver for this long, but the
	// sender does not wait for it. Unlike Latency (sender-side
	// occupancy), this is the network time a split-phase executor can
	// hide behind interior computation — the injected-delay knob the
	// overlap benchmarks turn. Every transport applies it at the
	// receiving mailbox, on the world's clock, and per-(source, tag) FIFO
	// ordering is preserved.
	Delay time.Duration
}

// delay is the one-way delivery delay of the medium (zero on a free
// network).
func (m *Model) delay() time.Duration {
	if m == nil {
		return 0
	}
	return m.Delay
}

// maxCost is the saturation bound for modeled costs: converting a
// float64 above MaxInt64 to time.Duration wraps to a negative value on
// most architectures, so an absurd byte count over a tiny bandwidth
// must clamp here instead of charging a negative (or wrapped) cost.
const maxCost = time.Duration(math.MaxInt64)

// cost returns the time one message of n payload bytes occupies the
// sender. The result is saturated: it is never negative, and a
// transfer term that overflows time.Duration clamps to maxCost. A
// Bandwidth that is zero, negative or NaN means "infinite" (no transfer
// term): a model Open would reject still prices a direct call at
// latency only instead of producing garbage durations.
func (m *Model) cost(n int) time.Duration {
	if m == nil {
		return 0
	}
	d := m.Latency
	if d < 0 {
		d = 0
	}
	if m.Bandwidth > 0 && n > 0 {
		t := float64(n) / m.Bandwidth * float64(time.Second)
		if t >= float64(maxCost) {
			return maxCost
		}
		if td := time.Duration(t); td > maxCost-d {
			return maxCost
		} else {
			d += td
		}
	}
	return d
}

// charge blocks the sender for the message's cost on the given clock.
// On a simulated clock the charge is an exact virtual duration; on the
// real clock it is a time.Sleep like before.
func (m *Model) charge(clock vtime.Clock, n int) {
	if d := m.cost(n); d > 0 {
		clock.Sleep(d)
	}
}

// CheckEthernetScale reports whether Ethernet accepts scale: anything
// but a finite positive number is an error. It is the one statement of
// the rule, for callers whose scale comes from outside the program (a
// command-line flag) and must yield an error, not Ethernet's panic.
func CheckEthernetScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("Ethernet scale must be a finite positive number, got %g", scale)
	}
	return nil
}

// Ethernet returns a model of the paper's interconnect: 10 Mbit/s
// shared Ethernet with ~1 ms message setup and hardware multicast.
// Scale multiplies both latency and transfer time (scale < 1 speeds
// the network up, handy for quick benchmark runs). Scale must be a
// finite positive number (CheckEthernetScale): dividing by zero, a
// negative value, NaN or an infinity would silently produce a
// meaningless bandwidth, so an invalid scale panics — a configuration
// bug, caught loudly at the construction site like a bad regexp in
// MustCompile. Programs that take the scale from a user check it first.
func Ethernet(scale float64) *Model {
	if err := CheckEthernetScale(scale); err != nil {
		panic("comm: " + err.Error())
	}
	return &Model{
		Latency:   time.Duration(float64(time.Millisecond) * scale),
		Bandwidth: 1.25e6 / scale,
		Multicast: true,
	}
}
