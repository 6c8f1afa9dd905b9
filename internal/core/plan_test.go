package core

import (
	"fmt"
	"math"
	"testing"

	"stance/internal/comm"
	"stance/internal/order"
	"stance/internal/partition"
)

// The reference implementations below are the pre-plan executor data
// path (PR 1's Exchange/ScatterAdd/ExchangeAll, verbatim): a fresh
// pack buffer per peer per call, two copies through the byte codec,
// and receives drained in fixed rank order. The equivalence tests pin
// the compiled-plan path against them bit for bit — same wire format,
// same ghost values, and the same floating-point accumulation order.

func refExchange(rt *Runtime, v *Vector) error {
	s := rt.sch
	for q := 0; q < s.NProcs; q++ {
		idx := s.SendIdx[q]
		if len(idx) == 0 {
			continue
		}
		buf := make([]float64, len(idx))
		for i, li := range idx {
			buf[i] = v.Data[li]
		}
		if err := rt.c.Send(q, tagExchange, comm.F64sToBytes(buf)); err != nil {
			return err
		}
	}
	nLocal := rt.LocalN()
	for q := 0; q < s.NProcs; q++ {
		slots := s.RecvSlot[q]
		if len(slots) == 0 {
			continue
		}
		data, err := rt.c.Recv(q, tagExchange)
		if err != nil {
			return err
		}
		vals, err := comm.BytesToF64s(data)
		if err != nil {
			return err
		}
		if len(vals) != len(slots) {
			return fmt.Errorf("peer %d sent %d values, schedule expects %d", q, len(vals), len(slots))
		}
		for i, slot := range slots {
			v.Data[nLocal+int(slot)] = vals[i]
		}
	}
	return nil
}

func refScatterAdd(rt *Runtime, v *Vector) error {
	s := rt.sch
	nLocal := rt.LocalN()
	for q := 0; q < s.NProcs; q++ {
		slots := s.RecvSlot[q]
		if len(slots) == 0 {
			continue
		}
		buf := make([]float64, len(slots))
		for i, slot := range slots {
			buf[i] = v.Data[nLocal+int(slot)]
		}
		if err := rt.c.Send(q, tagScatter, comm.F64sToBytes(buf)); err != nil {
			return err
		}
	}
	for q := 0; q < s.NProcs; q++ {
		idx := s.SendIdx[q]
		if len(idx) == 0 {
			continue
		}
		data, err := rt.c.Recv(q, tagScatter)
		if err != nil {
			return err
		}
		vals, err := comm.BytesToF64s(data)
		if err != nil {
			return err
		}
		if len(vals) != len(idx) {
			return fmt.Errorf("peer %d scattered %d values, schedule expects %d", q, len(vals), len(idx))
		}
		for i, li := range idx {
			v.Data[li] += vals[i]
		}
	}
	return nil
}

func refExchangeAll(rt *Runtime, vecs ...*Vector) error {
	s := rt.sch
	nLocal := rt.LocalN()
	for q := 0; q < s.NProcs; q++ {
		idx := s.SendIdx[q]
		if len(idx) == 0 {
			continue
		}
		buf := make([]float64, 0, len(idx)*len(vecs))
		for _, v := range vecs {
			for _, li := range idx {
				buf = append(buf, v.Data[li])
			}
		}
		if err := rt.c.Send(q, tagExchange, comm.F64sToBytes(buf)); err != nil {
			return err
		}
	}
	for q := 0; q < s.NProcs; q++ {
		slots := s.RecvSlot[q]
		if len(slots) == 0 {
			continue
		}
		data, err := rt.c.Recv(q, tagExchange)
		if err != nil {
			return err
		}
		vals, err := comm.BytesToF64s(data)
		if err != nil {
			return err
		}
		if len(vals) != len(slots)*len(vecs) {
			return fmt.Errorf("peer %d sent %d values, coalesced schedule expects %d",
				q, len(vals), len(slots)*len(vecs))
		}
		for vi, v := range vecs {
			seg := vals[vi*len(slots) : (vi+1)*len(slots)]
			for i, slot := range slots {
				v.Data[nLocal+int(slot)] = seg[i]
			}
		}
	}
	return nil
}

// execScript drives one runtime through a fixed mix of executor
// operations (including across a Remap) and snapshots every rank's
// full vector data (owned + ghost) after each step. planPath selects
// the compiled-plan implementations or the pre-plan references.
func execScript(t *testing.T, p int, planPath bool) [][][]float64 {
	t.Helper()
	g := testMesh(t)
	world := openWorld(t, p)

	var mu = make(chan struct{}, 1) // snapshot append guard
	mu <- struct{}{}
	var snaps [][][]float64 // snapshot -> rank -> data
	snapshot := func(rank int, step int, vecs ...*Vector) {
		<-mu
		for len(snaps) <= step {
			snaps = append(snaps, make([][]float64, p))
		}
		var all []float64
		for _, v := range vecs {
			all = append(all, append([]float64(nil), v.Data...)...)
		}
		snaps[step][rank] = all
		mu <- struct{}{}
	}

	exchange := func(rt *Runtime, v *Vector) error {
		if planPath {
			return rt.Exchange(v)
		}
		return refExchange(rt, v)
	}
	scatterAdd := func(rt *Runtime, v *Vector) error {
		if planPath {
			return rt.ScatterAdd(v)
		}
		return refScatterAdd(rt, v)
	}
	exchangeAll := func(rt *Runtime, vecs ...*Vector) error {
		if planPath {
			return rt.ExchangeAll(vecs...)
		}
		return refExchangeAll(rt, vecs...)
	}

	weights := make([]float64, p)
	for i := range weights {
		weights[i] = 1
	}
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB, Weights: weights})
		if err != nil {
			return err
		}
		v := rt.NewVector()
		w := rt.NewVector()
		v.SetByGlobal(initValue)
		w.SetByGlobal(func(gid int64) float64 { return math.Cos(float64(gid)*0.3) - 1 })

		step := 0
		runOnce := func() error {
			if err := exchange(rt, v); err != nil {
				return err
			}
			snapshot(c.Rank(), step, v)
			step++
			// Push each element's value onto its neighbors (ghost
			// contributions included), then scatter them home: elements
			// on partition corners receive contributions from several
			// peers, which is exactly where accumulation order shows.
			xadj, adj := rt.LocalAdj()
			for u := 0; u < rt.LocalN(); u++ {
				for k := xadj[u]; k < xadj[u+1]; k++ {
					w.Data[adj[k]] += v.Data[u] * 0.25
				}
			}
			if err := scatterAdd(rt, w); err != nil {
				return err
			}
			snapshot(c.Rank(), step, w)
			step++
			if err := exchangeAll(rt, v, w); err != nil {
				return err
			}
			snapshot(c.Rank(), step, v, w)
			step++
			// Mix ghosts into owned values so the next round depends on
			// the previous exchanges.
			for u := 0; u < rt.LocalN(); u++ {
				sum := 0.0
				for k := xadj[u]; k < xadj[u+1]; k++ {
					sum += v.Data[adj[k]]
				}
				if d := xadj[u+1] - xadj[u]; d > 0 {
					v.Data[u] = sum / float64(d)
				}
			}
			return nil
		}
		for round := 0; round < 2; round++ {
			if err := runOnce(); err != nil {
				return err
			}
		}
		// The environment adapts; the schedule, plan and ghost layouts
		// are rebuilt, and the replay must still match.
		newW := make([]float64, p)
		for i := range newW {
			newW[i] = 1
		}
		newW[0] = 0.4
		if _, err := rt.Remap(newW); err != nil {
			return err
		}
		return runOnce()
	})
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

// TestPlanPathMatchesReferenceBitForBit pins the refactor's acceptance
// criterion: the compiled-plan Exchange/ScatterAdd/ExchangeAll produce
// bit-identical vectors to the pre-plan path, including after a remap.
func TestPlanPathMatchesReferenceBitForBit(t *testing.T) {
	for _, p := range []int{2, 4} {
		planned := execScript(t, p, true)
		reference := execScript(t, p, false)
		if len(planned) != len(reference) || len(planned) == 0 {
			t.Fatalf("p=%d: snapshot counts differ: %d vs %d", p, len(planned), len(reference))
		}
		for step := range planned {
			for rank := range planned[step] {
				a, b := planned[step][rank], reference[step][rank]
				if len(a) != len(b) {
					t.Fatalf("p=%d step %d rank %d: data lengths differ: %d vs %d",
						p, step, rank, len(a), len(b))
				}
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						t.Fatalf("p=%d step %d rank %d: element %d = %v (plan) vs %v (reference); must be bit-exact",
							p, step, rank, i, a[i], b[i])
					}
				}
			}
		}
	}
}

// TestPlanInvalidatedByRemap covers plan invalidation: after Remap the
// compiled plan is rebuilt for the new layout, and replaying it
// matches a freshly constructed runtime element for element.
func TestPlanInvalidatedByRemap(t *testing.T) {
	g := testMesh(t)
	const p = 3
	oldW := []float64{1, 1, 1}
	newW := []float64{0.5, 1, 2}

	// Remapped runtime: built under oldW and remapped to newW; the fresh
	// one is bound to the layout the remap chose, so the two must agree.
	collect := func(build func(c *comm.Comm) (*Runtime, *Vector, error)) [][]float64 {
		t.Helper()
		world := openWorld(t, p)
		out := make([][]float64, p)
		err := world.SPMD(nil, func(c *comm.Comm) error {
			rt, v, err := build(c)
			if err != nil {
				return err
			}
			if err := rt.Exchange(v); err != nil {
				return err
			}
			if err := rt.ScatterAdd(v); err != nil {
				return err
			}
			if err := rt.ExchangeAll(v); err != nil {
				return err
			}
			out[c.Rank()] = append([]float64(nil), v.Data...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	var chosen *partition.Layout
	remapped := collect(func(c *comm.Comm) (*Runtime, *Vector, error) {
		rt, err := New(c, g, Config{Order: order.RCB, Weights: oldW})
		if err != nil {
			return nil, nil, err
		}
		v := rt.NewVector()
		before := rt.Plan()
		if _, err := rt.Remap(newW); err != nil {
			return nil, nil, err
		}
		if rt.Plan() == before {
			return nil, nil, fmt.Errorf("rank %d: plan not rebuilt by Remap", c.Rank())
		}
		if got, want := rt.Plan().NLocal(), rt.LocalN(); got != want {
			return nil, nil, fmt.Errorf("rank %d: rebuilt plan NLocal %d, layout %d", c.Rank(), got, want)
		}
		if c.Rank() == 0 {
			chosen = rt.Layout()
		}
		v.SetByGlobal(initValue)
		return rt, v, nil
	})
	fresh := collect(func(c *comm.Comm) (*Runtime, *Vector, error) {
		rt, err := NewParked(c, g, Config{Order: order.RCB})
		if err != nil {
			return nil, nil, err
		}
		if err := rt.Bind(c, chosen); err != nil {
			return nil, nil, err
		}
		v := rt.NewVector()
		v.SetByGlobal(initValue)
		return rt, v, nil
	})

	for rank := range remapped {
		if len(remapped[rank]) != len(fresh[rank]) {
			t.Fatalf("rank %d: data lengths differ: %d vs %d", rank, len(remapped[rank]), len(fresh[rank]))
		}
		for i := range remapped[rank] {
			if math.Float64bits(remapped[rank][i]) != math.Float64bits(fresh[rank][i]) {
				t.Fatalf("rank %d: element %d = %v (remapped) vs %v (fresh)",
					rank, i, remapped[rank][i], fresh[rank][i])
			}
		}
	}
}

// TestScatterAddAll checks the coalesced transpose: contributions from
// several vectors travel home in one message per peer and land exactly
// as repeated ScatterAdd calls would.
func TestScatterAddAll(t *testing.T) {
	g := testMesh(t)
	const p = 3
	run := func(coalesced bool) [][]float64 {
		t.Helper()
		world := openWorld(t, p)
		out := make([][]float64, p)
		err := world.SPMD(nil, func(c *comm.Comm) error {
			rt, err := New(c, g, Config{Order: order.RCB})
			if err != nil {
				return err
			}
			a, b := rt.NewVector(), rt.NewVector()
			xadj, adj := rt.LocalAdj()
			for u := 0; u < rt.LocalN(); u++ {
				for k := xadj[u]; k < xadj[u+1]; k++ {
					a.Data[adj[k]]++
					b.Data[adj[k]] += 0.5
				}
			}
			if coalesced {
				if err := rt.ScatterAddAll(a, b); err != nil {
					return err
				}
			} else {
				if err := rt.ScatterAdd(a); err != nil {
					return err
				}
				if err := rt.ScatterAdd(b); err != nil {
					return err
				}
			}
			out[c.Rank()] = append(append([]float64(nil), a.Local()...), b.Local()...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	coalesced := run(true)
	separate := run(false)
	for rank := range coalesced {
		for i := range coalesced[rank] {
			if math.Float64bits(coalesced[rank][i]) != math.Float64bits(separate[rank][i]) {
				t.Fatalf("rank %d element %d: coalesced %v vs separate %v",
					rank, i, coalesced[rank][i], separate[rank][i])
			}
		}
	}
	// And the counts themselves are right: every element accumulated
	// its degree (a) and half its degree (b).
	world := openWorld(t, 1)
	rt, err := New(world.Comm(0), g, Config{Order: order.RCB})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 owns the first contiguous interval of the transformed
	// graph, so its local indices line up with the solo runtime's.
	xadj, _ := rt.LocalAdj()
	for u := 0; u < len(coalesced[0])/2; u++ {
		deg := float64(xadj[u+1] - xadj[u])
		if coalesced[0][u] != deg {
			t.Fatalf("element %d = %v, want degree %v", u, coalesced[0][u], deg)
		}
	}
}
