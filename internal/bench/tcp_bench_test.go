package bench

// Wire-transport benchmarks: the compiled exchange plan replayed over
// real loopback TCP sockets, and the tx batching win on small-section
// workloads. BenchmarkTcpExchange is the cross-transport comparison
// point for BenchmarkExchange (same mesh, same plan, sockets instead
// of channels); BenchmarkTcpExchangeBatched pins the gofast-style
// batching claim — many small tagged sections coalesced into single
// framed writes versus the one-write-per-message baseline
// (BatchBytes 1).

import (
	"fmt"
	"testing"

	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/mesh"
	"stance/internal/order"
)

// newTCPExecHarness is newExecHarness over a TCP world: the same warm
// runtime/vector stack, with the socket mesh's wire buffers and the
// mailbox receive pool warmed by the same pre-rounds.
func newTCPExecHarness(b *testing.B, p int, opts comm.TransportOptions) *execHarness {
	b.Helper()
	g, err := mesh.Honeycomb(60, 100)
	if err != nil {
		b.Fatal(err)
	}
	w, err := comm.Open("tcp", p, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { w.Close() })
	h := &execHarness{world: w, rts: make([]*core.Runtime, p), vs: make([][]*core.Vector, p)}
	err = w.SPMD(nil, func(c *comm.Comm) error {
		rt, err := core.New(c, g, core.Config{Order: order.RCB})
		if err != nil {
			return err
		}
		h.rts[c.Rank()] = rt
		v := rt.NewVector()
		v.SetByGlobal(func(gid int64) float64 { return float64(gid % 101) })
		h.vs[c.Rank()] = append(h.vs[c.Rank()], v)
		for i := 0; i < 4; i++ {
			if err := rt.Exchange(v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkTcpExchange measures the steady-state plan-replayed ghost
// gather over loopback TCP with default transport options — the number
// to hold against BenchmarkExchange's inproc figure.
func BenchmarkTcpExchange(b *testing.B) {
	for _, p := range []int{2, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			h := newTCPExecHarness(b, p, comm.TransportOptions{})
			b.ReportAllocs()
			b.ResetTimer()
			err := h.world.SPMD(nil, func(c *comm.Comm) error {
				rt, v := h.rts[c.Rank()], h.vs[c.Rank()][0]
				for i := 0; i < b.N; i++ {
					if err := rt.Exchange(v); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkTcpExchangeBatched measures the tx batching win: one rank
// bursts many small tagged messages at a peer, the peer acks the
// burst. Under "batched" the writer coalesces the burst into a few
// framed writes; "write-per-msg" (BatchBytes 1) frames every message
// alone — the baseline batching must beat.
func BenchmarkTcpExchangeBatched(b *testing.B) {
	const (
		burst    = 64
		msgBytes = 16
	)
	modes := []struct {
		name string
		opts comm.TransportOptions
	}{
		{"batched", comm.TransportOptions{}},
		{"write-per-msg", comm.TransportOptions{BatchBytes: 1}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			w, err := comm.Open("tcp", 2, mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { w.Close() })
			payload := make([]byte, msgBytes)
			b.SetBytes(burst * msgBytes)
			b.ResetTimer()
			err = w.SPMD(nil, func(c *comm.Comm) error {
				if c.Rank() == 0 {
					for i := 0; i < b.N; i++ {
						for j := 0; j < burst; j++ {
							if err := c.Send(1, 5, payload); err != nil {
								return err
							}
						}
						ack, err := c.Recv(1, 6)
						if err != nil {
							return err
						}
						c.Release(ack)
					}
				} else {
					for i := 0; i < b.N; i++ {
						for j := 0; j < burst; j++ {
							msg, err := c.Recv(0, 5)
							if err != nil {
								return err
							}
							c.Release(msg)
						}
						if err := c.Send(0, 6, nil); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
