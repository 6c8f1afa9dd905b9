package bench

// Redistribution benchmarks: the data path a remap or membership
// transition pays — choose/receive the new layout, build the transfer
// plan, move every registered vector's owned section, and rebuild the
// schedule. BenchmarkRemap alternates between two capability vectors
// so every iteration really moves data (the layouts differ), on a free
// inproc network so the numbers are pure software overhead.

import (
	"fmt"
	"testing"

	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/partition"
)

// BenchmarkRemap measures a full in-world remap round trip: plan
// build, vector movement over the wire and the inspector rebuild,
// alternating between a skewed and a uniform capability vector.
func BenchmarkRemap(b *testing.B) {
	for _, p := range []int{2, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			h := newExecHarness(b, p, 1)
			// Two weight vectors whose layouts differ: rank 0 twice as
			// capable vs uniform.
			skewed := make([]float64, p)
			uniform := make([]float64, p)
			for i := range skewed {
				skewed[i], uniform[i] = 1, 1
			}
			skewed[0] = 2
			b.ReportAllocs()
			b.ResetTimer()
			err := h.world.SPMD(nil, func(c *comm.Comm) error {
				rt := h.rts[c.Rank()]
				for i := 0; i < b.N; i++ {
					w := skewed
					if i%2 == 1 {
						w = uniform
					}
					st, err := rt.Remap(w)
					if err != nil {
						return err
					}
					if !st.Changed || st.Moved == 0 {
						return fmt.Errorf("remap %d moved nothing (Changed=%v)", i, st.Changed)
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

// BenchmarkRebind measures the cross-world-size membership data path:
// a p-rank world shrinking onto p-1 survivors and growing back — plan
// build against mismatched world sizes, migration over the parent
// world and the schedule rebuild on each new sub-world — per
// shrink+grow round trip.
func BenchmarkRebind(b *testing.B) {
	for _, p := range []int{3, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			g, err := mesh.Honeycomb(60, 100)
			if err != nil {
				b.Fatal(err)
			}
			world, err := comm.Open("inproc", p, comm.TransportOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { world.Close() })
			rts := make([]*core.Runtime, p)
			err = world.SPMD(nil, func(c *comm.Comm) error {
				rt, err := core.New(c, g, core.Config{Order: order.RCB})
				if err != nil {
					return err
				}
				v := rt.NewVector()
				v.SetByGlobal(func(gid int64) float64 { return float64(gid % 101) })
				rts[c.Rank()] = rt
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			full := make([]int, p)
			for i := range full {
				full[i] = i
			}
			survivors := full[:p-1] // the last rank retires
			wFull := make([]float64, p)
			for i := range wFull {
				wFull[i] = 1
			}
			wShrunk := wFull[:p-1]
			b.ReportAllocs()
			b.ResetTimer()
			err = world.SPMD(nil, func(c *comm.Comm) error {
				rt := rts[c.Rank()]
				fullLayout := rt.Layout()
				for i := 0; i < b.N; i++ {
					shrunkLayout, err := rt.CutLayout(wShrunk)
					if err != nil {
						return err
					}
					if err := rebindTo(c, rt, fullLayout, full, shrunkLayout, survivors); err != nil {
						return err
					}
					if fullLayout, err = rt.CutLayout(wFull); err != nil {
						return err
					}
					if err := rebindTo(c, rt, shrunkLayout, survivors, fullLayout, full); err != nil {
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

// rebindTo executes one commit step of the membership protocol —
// cross-world plan, migration, schedule rebuild or park — without the
// control messages (in the benchmark every rank knows both sides).
func rebindTo(c *comm.Comm, rt *core.Runtime, oldLayout *partition.Layout, oldActive []int,
	newLayout *partition.Layout, newActive []int) error {
	var sub *comm.Comm
	var err error
	for _, r := range newActive {
		if r == c.Rank() {
			if sub, err = c.Sub(newActive); err != nil {
				return err
			}
			break
		}
	}
	_, err = rt.Rebind(core.Rebind{
		Carrier:  c,
		Sub:      sub,
		Old:      oldLayout,
		New:      newLayout,
		OldProcs: oldActive,
		NewProcs: newActive,
	})
	return err
}
