package session

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"stance/internal/comm"
	"stance/internal/hetero"
	"stance/internal/loadbal"
	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/vtime"
)

// depthCfg is the 4-rank virtual-time session the executor-depth table
// runs on. Compute is charged, not spun, in whole nanoseconds per
// element, so the rates the balancer sees — and with them every remap
// decision and layout — are exact and the same at every depth.
func depthCfg(depth, fields int) Config {
	return Config{
		Procs: 4,
		Order: order.RCB,
		Net: comm.TransportOptions{
			Clock: vtime.NewSim(),
			Model: &comm.Model{Latency: 100 * time.Microsecond},
		},
		ComputeCost: time.Microsecond,
		Pipeline:    depth,
		Fields:      fields,
	}
}

// depthState is what one run leaves behind for comparison: the
// gathered field 0 and every field's owned values, rank by rank.
type depthState struct {
	byVertex []float64
	owned    [][]float64
}

func snapshot(t *testing.T, s *Session) depthState {
	t.Helper()
	res, err := s.ResultByVertex()
	if err != nil {
		t.Fatal(err)
	}
	_, active := s.Membership()
	owned := make([][]float64, s.Solver(active[0]).Fields())
	for _, r := range active {
		n := s.Runtime(r).LocalN()
		for f := range owned {
			owned[f] = append(owned[f], s.Solver(r).Field(f).Data[:n]...)
		}
	}
	return depthState{res, owned}
}

func assertBitExact(t *testing.T, want, got []float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: result lengths differ: %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: element %d: got %v, want %v (must match bit for bit)", label, i, got[i], want[i])
		}
	}
}

func assertSameState(t *testing.T, want, got depthState, label string) {
	t.Helper()
	assertBitExact(t, want.byVertex, got.byVertex, label+" field 0 by vertex")
	for f := range want.owned {
		assertBitExact(t, want.owned[f], got.owned[f], fmt.Sprintf("%s field %d owned", label, f))
	}
}

// assertDepthCounters pins what the depth may and may not change about
// a run's executor counters: the schedule of Start against Wait, never
// the traffic. ref is the depth-0 report of the same configuration.
func assertDepthCounters(t *testing.T, depth int, ref, rep *RunReport) {
	t.Helper()
	if rep.Exec.Ops == 0 {
		t.Fatal("run recorded no executor ops")
	}
	if rep.Exec.Ops != ref.Exec.Ops || rep.Exec.Msgs != ref.Exec.Msgs || rep.Exec.Bytes != ref.Exec.Bytes {
		t.Errorf("executor traffic %d ops/%d msgs/%d bytes, depth 0 had %d/%d/%d",
			rep.Exec.Ops, rep.Exec.Msgs, rep.Exec.Bytes, ref.Exec.Ops, ref.Exec.Msgs, ref.Exec.Bytes)
	}
	want := rep.Exec.Ops
	if depth == 0 {
		want = 0
	}
	if rep.Exec.Overlapped != want {
		t.Errorf("%d of %d executor ops ran split-phase, want %d", rep.Exec.Overlapped, rep.Exec.Ops, want)
	}
}

// forDepths runs the configuration at depth 0 as the reference, then
// hands check every depth's outcome (depth 0 again included: a second
// run of it must reproduce the first) beside that reference, for one
// and for several solution fields.
func forDepths[R any](t *testing.T, run func(t *testing.T, depth, fields int) R, check func(t *testing.T, depth int, ref, got R)) {
	for _, fields := range []int{1, 3} {
		ref := run(t, 0, fields)
		for _, depth := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("fields=%d/depth=%d", fields, depth), func(t *testing.T) {
				check(t, depth, ref, run(t, depth, fields))
			})
		}
	}
}

// depthOutcome is one run's report and final state.
type depthOutcome struct {
	rep   *RunReport
	state depthState
}

// TestDepthsBitExactAcrossRemap pins every executor depth against
// depth 0 across a load-balancer remap: a 6x competing load on rank 0
// makes the charged rates lopsided, so the balancer remaps away from
// the uniform initial cut.
func TestDepthsBitExactAcrossRemap(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	forDepths(t, func(t *testing.T, depth, fields int) depthOutcome {
		cfg := depthCfg(depth, fields)
		cfg.CheckEvery = 5
		cfg.Env = hetero.Uniform(4)
		cfg.Env.Loads = []hetero.Load{{Rank: 0, Factor: 6, FromIter: 0}}
		cfg.Balancer = &loadbal.Config{}
		s, err := New(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rep, err := s.Run(30)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Remaps()) == 0 {
			t.Fatal("no remap; the 6x load on rank 0 should force one")
		}
		return depthOutcome{rep, snapshot(t, s)}
	}, func(t *testing.T, depth int, ref, got depthOutcome) {
		assertSameState(t, ref.state, got.state, "balanced run")
		assertDepthCounters(t, depth, ref.rep, got.rep)
		if len(got.rep.Remaps()) != len(ref.rep.Remaps()) {
			t.Errorf("%d remaps, depth 0 had %d", len(got.rep.Remaps()), len(ref.rep.Remaps()))
		}
	})
}

// checkPlanSplit asserts the interior/boundary invariant on a session's
// active runtimes — the cross-world half of core's classification
// property test, exercised after elastic rebinds and recoveries: the
// two lists partition the local index set, interior rows reference no
// ghost, and each list is in plan order.
func checkPlanSplit(t *testing.T, s *Session, label string) {
	t.Helper()
	// planWindow is sched's unexported rowWindow.
	const planWindow = 256
	_, active := s.Membership()
	for _, r := range active {
		rt := s.Runtime(r)
		p := rt.Plan()
		if p == nil || !p.Classified() {
			t.Fatalf("%s: rank %d has no classified plan", label, r)
		}
		nLocal := rt.LocalN()
		xadj, adj := rt.LocalAdj()
		interior, boundary := p.InteriorRows().Idx, p.BoundaryRows().Idx
		if len(interior)+len(boundary) != nLocal {
			t.Fatalf("%s: rank %d: |interior|=%d + |boundary|=%d != nLocal=%d",
				label, r, len(interior), len(boundary), nLocal)
		}
		deg := func(u int32) int32 { return xadj[u+1] - xadj[u] }
		seen := make(map[int32]bool, nLocal)
		for _, rows := range [][]int32{interior, boundary} {
			for _, u := range rows {
				if u < 0 || int(u) >= nLocal {
					t.Fatalf("%s: rank %d: index %d out of local range [0,%d)", label, r, u, nLocal)
				}
				if seen[u] {
					t.Fatalf("%s: rank %d: index %d listed twice", label, r, u)
				}
				seen[u] = true
			}
			// Plan order: the windows are those of the ascending list, and
			// inside one degrees are non-decreasing, rows ascending within
			// a degree.
			for lo := 0; lo < len(rows); lo += planWindow {
				w := rows[lo:min(lo+planWindow, len(rows))]
				for i := 1; i < len(w); i++ {
					if a, b := w[i-1], w[i]; deg(a) > deg(b) || deg(a) == deg(b) && a >= b {
						t.Fatalf("%s: rank %d: window at %d: row %d (degree %d) precedes row %d (degree %d)",
							label, r, lo, a, deg(a), b, deg(b))
					}
				}
				if lo > 0 && slices.Max(rows[lo-planWindow:lo]) >= slices.Min(w) {
					t.Fatalf("%s: rank %d: window at %d holds a row below one of the window before it", label, r, lo)
				}
			}
		}
		for _, u := range interior {
			for _, ref := range adj[xadj[u]:xadj[u+1]] {
				if int(ref) >= nLocal {
					t.Fatalf("%s: rank %d: interior row %d references ghost %d", label, r, u, ref)
				}
			}
		}
	}
}

// TestDepthsBitExactAcrossShrinkGrow runs the scripted shrink→grow
// scenario at every depth: rank 2 retires at iteration 20 and is
// re-admitted at 60, then an explicit Resize retires it again. Every
// elastic run must match the depth-0 fixed-world run bit for bit, with
// the classification invariant holding after each cross-world rebind.
func TestDepthsBitExactAcrossShrinkGrow(t *testing.T) {
	g, err := mesh.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	const iters, more = 80, 20
	// elasticOutcome is an elastic run beside the fixed-world run of the
	// same depth and field count, at both comparison points.
	type elasticOutcome struct {
		grown, resized           *RunReport
		state, fixed             depthState
		afterResize, fixedResize []float64
	}
	forDepths(t, func(t *testing.T, depth, fields int) elasticOutcome {
		var out elasticOutcome
		cfg := depthCfg(depth, fields)
		cfg.CheckEvery = 10
		fixed, err := New(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer fixed.Close()
		if _, err := fixed.Run(iters); err != nil {
			t.Fatal(err)
		}
		out.fixed = snapshot(t, fixed)
		if _, err := fixed.Run(more); err != nil {
			t.Fatal(err)
		}
		if out.fixedResize, err = fixed.ResultByVertex(); err != nil {
			t.Fatal(err)
		}

		cfg = depthCfg(depth, fields)
		cfg.CheckEvery = 10
		cfg.Outages = []hetero.Outage{{Rank: 2, FromIter: 20, UntilIter: 60}}
		el, err := New(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer el.Close()
		if out.grown, err = el.Run(iters); err != nil {
			t.Fatal(err)
		}
		if len(out.grown.Members) != 2 {
			t.Fatalf("%d membership transitions, want 2: %+v", len(out.grown.Members), out.grown.Members)
		}
		checkPlanSplit(t, el, "after shrink+grow")
		out.state = snapshot(t, el)

		// An explicit Resize exercises one more cross-world rebind.
		if err := el.Resize([]int{0, 1, 3}); err != nil {
			t.Fatal(err)
		}
		if out.resized, err = el.Run(more); err != nil {
			t.Fatal(err)
		}
		checkPlanSplit(t, el, "after resize")
		if out.afterResize, err = el.ResultByVertex(); err != nil {
			t.Fatal(err)
		}
		return out
	}, func(t *testing.T, depth int, ref, got elasticOutcome) {
		// All four ranks are active again under the initial uniform
		// cut, so the owned sections line up with the fixed world's.
		assertSameState(t, ref.fixed, got.state, "elastic shrink/grow vs fixed depth 0")
		assertSameState(t, ref.fixed, got.fixed, "fixed world vs fixed depth 0")
		assertDepthCounters(t, depth, ref.grown, got.grown)
		// The shrunken world owns different sections than the fixed
		// one, so only the gathered field compares.
		assertBitExact(t, ref.fixedResize, got.afterResize, "post-resize continuation")
		assertDepthCounters(t, depth, ref.resized, got.resized)
	})
}
