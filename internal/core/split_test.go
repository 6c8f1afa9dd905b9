package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"stance/internal/comm"
	"stance/internal/mesh"
	"stance/internal/order"
)

// splitScript drives one world through a fixed mix of executor
// operations with compute interleaved between the exchange halves,
// using either split-phase Exchanges (ExchangeStart and Wait, two in
// flight where the synchronous run coalesces) or the synchronous ones
// at the same program points, with a ScatterAdd between them. Snapshots
// of every rank's full vector data are taken after each step; the two
// modes must agree bit for bit, including across a Remap.
func splitScript(t *testing.T, p int, split bool) [][][]float64 {
	t.Helper()
	g := testMesh(t)
	world := openWorld(t, p)

	mu := make(chan struct{}, 1)
	mu <- struct{}{}
	var snaps [][][]float64
	snapshot := func(rank, step int, vecs ...*Vector) {
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

	weights := make([]float64, p)
	for i := range weights {
		weights[i] = 1
	}
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB, Weights: weights})
		if err != nil {
			return err
		}
		v, w := rt.NewVector(), rt.NewVector()
		v.SetByGlobal(initValue)
		w.SetByGlobal(func(gid int64) float64 { return math.Sin(float64(gid)*0.7) + 2 })

		// interiorMix folds v's interior values into w — compute that
		// reads no ghost, legal while an Exchange is in flight.
		interiorMix := func() {
			for _, u := range rt.Plan().InteriorRows().Idx {
				w.Data[u] += v.Data[u] * 0.5
			}
		}
		// boundaryMix reads ghosts, so it must run after the exchange
		// completes in both modes.
		boundaryMix := func() {
			xadj, adj := rt.LocalAdj()
			for _, u := range rt.Plan().BoundaryRows().Idx {
				sum := 0.0
				for k := xadj[u]; k < xadj[u+1]; k++ {
					sum += v.Data[adj[k]]
				}
				w.Data[u] += sum * 0.125
			}
		}

		step := 0
		runOnce := func() error {
			// Exchange with interior compute between the halves.
			if split {
				h, err := rt.ExchangeStart(v)
				if err != nil {
					return err
				}
				interiorMix()
				if err := h.Wait(); err != nil {
					return err
				}
			} else {
				if err := rt.Exchange(v); err != nil {
					return err
				}
				interiorMix()
			}
			boundaryMix()
			snapshot(c.Rank(), step, v, w)
			step++

			// ScatterAdd: push ghost contributions home.
			xadj, adj := rt.LocalAdj()
			for u := 0; u < rt.LocalN(); u++ {
				for k := xadj[u]; k < xadj[u+1]; k++ {
					w.Data[adj[k]] += v.Data[u] * 0.25
				}
			}
			if err := rt.ScatterAdd(w); err != nil {
				return err
			}
			snapshot(c.Rank(), step, w)
			step++

			// Two exchanges in flight against one coalesced exchange.
			if split {
				hv, err := rt.ExchangeStart(v)
				if err != nil {
					return err
				}
				hw, err := rt.ExchangeStart(w)
				if err != nil {
					return err
				}
				interiorMix()
				if err := hw.Wait(); err != nil {
					return err
				}
				if err := hv.Wait(); err != nil {
					return err
				}
			} else {
				if err := rt.ExchangeAll(v, w); err != nil {
					return err
				}
				interiorMix()
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
		newW := make([]float64, p)
		for i := range newW {
			newW[i] = 1
		}
		newW[p-1] = 0.3
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

// TestSplitPhaseMatchesSyncBitForBit pins the tentpole's acceptance
// criterion at the core level: the split-phase executor operations
// produce bit-identical vectors to the synchronous ones with compute
// interleaved between the halves, including across a Remap.
func TestSplitPhaseMatchesSyncBitForBit(t *testing.T) {
	for _, p := range []int{2, 4} {
		splitRun := splitScript(t, p, true)
		syncRun := splitScript(t, p, false)
		if len(splitRun) != len(syncRun) || len(splitRun) == 0 {
			t.Fatalf("p=%d: snapshot counts differ: %d vs %d", p, len(splitRun), len(syncRun))
		}
		for step := range splitRun {
			for rank := range splitRun[step] {
				a, b := splitRun[step][rank], syncRun[step][rank]
				if len(a) != len(b) {
					t.Fatalf("p=%d step %d rank %d: data lengths differ: %d vs %d",
						p, step, rank, len(a), len(b))
				}
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						t.Fatalf("p=%d step %d rank %d: element %d = %v (split) vs %v (sync); must be bit-exact",
							p, step, rank, i, a[i], b[i])
					}
				}
			}
		}
	}
}

// TestSplitPhaseGuards covers the misuse surface of the handle-based
// executor: conflicting Starts on a vector with a live op, synchronous
// and layout-changing operations that would race an in-flight handle,
// Wait on an already-completed handle, and split-phase calls on a
// parked runtime — all must fail loudly instead of corrupting state.
// Independent-vector ops, by contrast, must be allowed to coexist.
func TestSplitPhaseGuards(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 2)
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		v, w := rt.NewVector(), rt.NewVector()
		v.SetByGlobal(initValue)
		w.SetByGlobal(func(gid int64) float64 { return float64(gid) * 0.5 })

		mustErr := func(what string, err error) {
			if err == nil {
				t.Errorf("rank %d: %s succeeded, want error", c.Rank(), what)
			}
		}

		h, err := rt.ExchangeStart(v)
		if err != nil {
			return err
		}
		if rt.LiveOps() != 1 {
			t.Errorf("rank %d: LiveOps=%d after one Start, want 1", c.Rank(), rt.LiveOps())
		}
		if _, err := rt.ExchangeStart(v); err == nil {
			t.Errorf("rank %d: second ExchangeStart on the same vector succeeded, want error", c.Rank())
		}
		mustErr("sync Exchange on a vector with a live op", rt.Exchange(v))
		mustErr("sync ScatterAdd on a vector with a live op", rt.ScatterAdd(v))
		mustErr("coalesced ExchangeAll overlapping a live op", rt.ExchangeAll(v, w))
		_, remapErr := rt.Remap([]float64{1, 2})
		if _, toErr := rt.RemapTo(rt.Layout()); remapErr == nil || toErr == nil || toErr.Error() != remapErr.Error() {
			t.Errorf("rank %d: in flight, Remap returned %v and RemapTo %v; want one error", c.Rank(), remapErr, toErr)
		}
		// An op on an unrelated vector is independent and must be
		// admitted alongside the live one, and sync ops on unrelated
		// vectors stay legal too.
		hw, err := rt.ExchangeStart(w)
		if err != nil {
			t.Errorf("rank %d: independent ExchangeStart failed: %v", c.Rank(), err)
			return err
		}
		if rt.LiveOps() != 2 {
			t.Errorf("rank %d: LiveOps=%d with two live handles, want 2", c.Rank(), rt.LiveOps())
		}
		// Drain out of start order: handles carry their own tags, so
		// waiting on the younger one first must not steal messages.
		if err := hw.Wait(); err != nil {
			return err
		}
		mustErr("second Wait on a completed handle", hw.Wait())
		if err := h.Wait(); err != nil {
			return err
		}
		if !h.Done() || rt.LiveOps() != 0 {
			t.Errorf("rank %d: Done=%v LiveOps=%d after draining, want true/0", c.Rank(), h.Done(), rt.LiveOps())
		}
		mustErr("Wait on a nil handle", (*OpHandle)(nil).Wait())
		// The runtime must be fully usable again after a clean drain.
		if _, err := rt.Remap([]float64{1, 2}); err != nil {
			return err
		}
		return rt.Exchange(v)
	})
	if err != nil {
		t.Fatal(err)
	}

	// Split-phase ops on a parked runtime fail like their sync
	// counterparts.
	parked := openWorld(t, 1)
	rt, err := NewParked(parked.Comm(0), g, Config{Order: order.RCB})
	if err != nil {
		t.Fatal(err)
	}
	v := rt.NewVector()
	if _, err := rt.ExchangeStart(v); err == nil || !strings.Contains(err.Error(), "parked") {
		t.Errorf("ExchangeStart on parked runtime: err=%v, want parked error", err)
	}
	// And so do the synchronous ones, the coalesced forms included.
	for name, op := range map[string]func() error{
		"Exchange":      func() error { return rt.Exchange(v) },
		"ScatterAdd":    func() error { return rt.ScatterAdd(v) },
		"ExchangeAll":   func() error { return rt.ExchangeAll(v) },
		"ScatterAddAll": func() error { return rt.ScatterAddAll(v) },
	} {
		if err := op(); err == nil || !strings.Contains(err.Error(), "parked") {
			t.Errorf("%s on parked runtime: err=%v, want parked error", name, err)
		}
	}
}

// TestOpTagWindowExhaustion pins the in-flight capacity contract: the
// rotating tag window admits up to tagOpWindow concurrent handles, and
// the next Start fails with an actionable error instead of silently
// reusing a live tag. Synchronous ops send on their kind's fixed tag,
// so beside a full window they still run — counted in Ops, never in
// Overlapped or Pipelined, and never left live.
func TestOpTagWindowExhaustion(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 2)
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		handles := make([]*OpHandle, 0, tagOpWindow)
		vecs := make([]*Vector, 0, tagOpWindow)
		for i := 0; i < tagOpWindow; i++ {
			v := rt.NewVector()
			v.SetByGlobal(initValue)
			h, err := rt.ExchangeStart(v)
			if err != nil {
				return fmt.Errorf("Start %d: %w", i, err)
			}
			handles = append(handles, h)
			vecs = append(vecs, v)
		}
		spare := rt.NewVector()
		spare.SetByGlobal(initValue)
		if _, err := rt.ExchangeStart(spare); err == nil || !strings.Contains(err.Error(), "window") {
			return fmt.Errorf("Start past the tag window: err=%v, want window-exhaustion error", err)
		}
		before := rt.ExecStats()
		if err := rt.Exchange(spare); err != nil {
			return fmt.Errorf("Exchange beside a full window: %w", err)
		}
		if err := rt.ScatterAdd(spare); err != nil {
			return fmt.Errorf("ScatterAdd beside a full window: %w", err)
		}
		d := rt.ExecStats().Sub(before)
		if d.Ops != 2 || d.Overlapped != 0 || d.Pipelined != 0 || d.Idle != 0 {
			return fmt.Errorf("synchronous ops beside a full window counted %+v, want 2 ops and nothing split-phase", d)
		}
		if d.Msgs == 0 {
			return fmt.Errorf("synchronous ops on 2 ranks sent no messages")
		}
		if n := rt.LiveOps(); n != tagOpWindow {
			return fmt.Errorf("LiveOps=%d after the synchronous ops, want %d", n, tagOpWindow)
		}
		for _, h := range handles {
			if err := h.Wait(); err != nil {
				return err
			}
		}
		if rt.LiveOps() != 0 {
			return fmt.Errorf("LiveOps=%d after draining, want 0", rt.LiveOps())
		}
		// Slots recycle once their owners retire.
		h, err := rt.ExchangeStart(vecs[0])
		if err != nil {
			return err
		}
		return h.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// planWindow is sched's unexported rowWindow: how many consecutive
// entries of an ascending row list Classify groups by degree at a time.
const planWindow = 256

// checkPlanOrder asserts a plan list's row order: cut into windows of
// planWindow entries, every window holds smaller rows than the next
// (the windows are those of the ascending list), and inside a window
// degrees are non-decreasing and rows ascend within a degree.
func checkPlanOrder(t *testing.T, rows, xadj []int32, label string) {
	t.Helper()
	deg := func(u int32) int32 { return xadj[u+1] - xadj[u] }
	for lo := 0; lo < len(rows); lo += planWindow {
		w := rows[lo:min(lo+planWindow, len(rows))]
		for i := 1; i < len(w); i++ {
			if a, b := w[i-1], w[i]; deg(a) > deg(b) || deg(a) == deg(b) && a >= b {
				t.Errorf("%s: window at %d: row %d (degree %d) precedes row %d (degree %d)",
					label, lo, a, deg(a), b, deg(b))
				return
			}
		}
		if lo > 0 && slices.Max(rows[lo-planWindow:lo]) >= slices.Min(w) {
			t.Errorf("%s: window at %d holds a row below one of the window before it", label, lo)
			return
		}
	}
}

// checkSplit asserts the classification invariant on one rank: the
// interior and boundary lists are disjoint, exactly cover [0, LocalN),
// each is in plan order, and an element is boundary iff its localized
// adjacency references the ghost section. It reports the first breach
// with Errorf and returns — ranks call it inside SPMD sections, where
// a Fatalf would strand the others in their next collective.
func checkSplit(t *testing.T, rt *Runtime, label string) {
	t.Helper()
	p := rt.Plan()
	if !p.Classified() {
		t.Errorf("%s: plan not classified", label)
		return
	}
	nLocal := rt.LocalN()
	xadj, adj := rt.LocalAdj()
	interior, boundary := p.InteriorRows().Idx, p.BoundaryRows().Idx
	if len(interior)+len(boundary) != nLocal {
		t.Errorf("%s: |interior|=%d + |boundary|=%d != nLocal=%d",
			label, len(interior), len(boundary), nLocal)
		return
	}
	checkPlanOrder(t, interior, xadj, label+": interior")
	checkPlanOrder(t, boundary, xadj, label+": boundary")
	inBoundary := make([]bool, nLocal)
	seen := make([]int, nLocal)
	for _, u := range interior {
		seen[u]++
	}
	for _, u := range boundary {
		seen[u]++
		inBoundary[u] = true
	}
	for u, n := range seen {
		if n != 1 {
			t.Errorf("%s: local index %d appears %d times across interior+boundary, want exactly once", label, u, n)
			return
		}
	}
	for u := 0; u < nLocal; u++ {
		hasGhost := false
		for k := xadj[u]; k < xadj[u+1]; k++ {
			if int(adj[k]) >= nLocal {
				hasGhost = true
				break
			}
		}
		if hasGhost != inBoundary[u] {
			t.Errorf("%s: local index %d hasGhost=%v but inBoundary=%v", label, u, hasGhost, inBoundary[u])
			return
		}
	}
}

// TestClassificationPropertyRandomGraphs is the property test: for
// random geometric graphs, every rank's interior ∪ boundary is exactly
// its local index set — disjoint and complete, each list in plan order
// — and stays so across remaps to random capability vectors.
func TestClassificationPropertyRandomGraphs(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, radius := 300+rng.Intn(200), 0.12
		if seed == 4 {
			// Large enough that every rank's interior list spans several
			// plan windows.
			n, radius = 2400, 0.035
		}
		g, err := mesh.RandomGeometric(n, radius, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 3, 5} {
			world := openWorld(t, p)
			weights := make([]float64, p)
			for i := range weights {
				weights[i] = 0.5 + rng.Float64()
			}
			remapW := make([]float64, p)
			for i := range remapW {
				remapW[i] = 0.5 + rng.Float64()
			}
			err := world.SPMD(nil, func(c *comm.Comm) error {
				rt, err := New(c, g, Config{Order: order.Hilbert, Weights: weights})
				if err != nil {
					return err
				}
				checkSplit(t, rt, "fresh")
				if _, err := rt.Remap(remapW); err != nil {
					return err
				}
				checkSplit(t, rt, "remapped")
				return nil
			})
			world.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
