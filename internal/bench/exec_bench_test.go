package bench

// Executor micro-benchmarks for the compiled exchange plan: the
// per-iteration schedule replay (Phase C) on a free inproc network, so
// the numbers are pure data-path overhead with no modeled wire time.
// The headline property is allocs/op: once the plan's wire buffers and
// the transport's receive pool are warm, the steady state is
// allocation-free (b.ReportAllocs shows 0 allocs/op at real benchtime;
// the constant SPMD setup cost amortizes away).

import (
	"fmt"
	"testing"

	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/mesh"
	"stance/internal/order"
)

// execHarness is a warm world/runtime/vector stack for executor
// benchmarks, built outside the timed region.
type execHarness struct {
	world *comm.World
	rts   []*core.Runtime
	vs    [][]*core.Vector
}

func newExecHarness(b *testing.B, p, nvecs int) *execHarness {
	b.Helper()
	// The 60×100 honeycomb, and at p = 64 the 150×150 triangulated grid
	// of the scale-p64 workload: about 85 ghosts from six peers a rank,
	// where the mailbox's fan-in is the cost.
	g, err := mesh.Honeycomb(60, 100)
	if p == 64 {
		g, err = mesh.GridTriangulated(150, 150, 0.2, 1)
	}
	if err != nil {
		b.Fatal(err)
	}
	world, err := comm.Open("inproc", p, comm.TransportOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { world.Close() })
	h := &execHarness{world: world, rts: make([]*core.Runtime, p), vs: make([][]*core.Vector, p)}
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := core.New(c, g, core.Config{Order: order.RCB})
		if err != nil {
			return err
		}
		h.rts[c.Rank()] = rt
		for j := 0; j < nvecs; j++ {
			v := rt.NewVector()
			off := float64(j)
			v.SetByGlobal(func(gid int64) float64 { return float64(gid%101) + off })
			h.vs[c.Rank()] = append(h.vs[c.Rank()], v)
		}
		// Warm the plan's wire buffers and the transport's receive
		// pool so the timed region measures the steady state.
		for i := 0; i < 4; i++ {
			if err := rt.ExchangeAll(h.vs[c.Rank()]...); err != nil {
				return err
			}
			if err := rt.ScatterAddAll(h.vs[c.Rank()]...); err != nil {
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

// BenchmarkExchange measures the steady-state ghost gather: pack from
// the vector into a persistent wire buffer, send, drain receives in
// arrival-order batches, unpack straight into the ghost section.
func BenchmarkExchange(b *testing.B) {
	for _, p := range []int{2, 4, 64} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			h := newExecHarness(b, p, 1)
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

// BenchmarkScatterAdd measures the transpose: ghost contributions
// travel home and accumulate into owned elements in deterministic
// peer order.
func BenchmarkScatterAdd(b *testing.B) {
	for _, p := range []int{2, 4, 64} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			h := newExecHarness(b, p, 1)
			b.ReportAllocs()
			b.ResetTimer()
			err := h.world.SPMD(nil, func(c *comm.Comm) error {
				rt, v := h.rts[c.Rank()], h.vs[c.Rank()][0]
				for i := 0; i < b.N; i++ {
					if err := rt.ScatterAdd(v); err != nil {
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

// BenchmarkExchangeAll measures the coalesced gather: three vectors'
// segments share one message per peer.
func BenchmarkExchangeAll(b *testing.B) {
	const nvecs = 3
	for _, p := range []int{2, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			h := newExecHarness(b, p, nvecs)
			b.ReportAllocs()
			b.ResetTimer()
			err := h.world.SPMD(nil, func(c *comm.Comm) error {
				rt, vs := h.rts[c.Rank()], h.vs[c.Rank()]
				for i := 0; i < b.N; i++ {
					if err := rt.ExchangeAll(vs...); err != nil {
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
