package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"stance/internal/comm"
	"stance/internal/graph"
	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/partition"
	"stance/internal/sched"
)

// The reference inspector: the sequence Runtime.rebuild ran before it
// read the transformed CSR in place — copy the rank's whole access
// pattern into a fresh Refs, hand all of it to the schedule builder,
// localize every reference (a binary search for each one off the
// interval), compile a fresh plan and classify it by scanning every row
// again. The one-pass inspector must produce exactly its schedule and
// plan, chunk tables included, whatever the runtime's storage held
// before, and LocalAdj must materialize exactly the localized CSR.

// oracleRefs extracts the full access pattern of rows iv.
func oracleRefs(tg *graph.Graph, iv partition.Interval) sched.Refs {
	r := sched.Refs{Xadj: make([]int32, 1, iv.Len()+1)}
	for g := iv.Lo; g < iv.Hi; g++ {
		for _, w := range tg.Neighbors(int(g)) {
			r.Adj = append(r.Adj, int64(w))
		}
		r.Xadj = append(r.Xadj, int32(len(r.Adj)))
	}
	return r
}

// oracleBuilder runs one of the paper's three schedule builders
// (Table 3) on a rank's refs. The runtime builds with Sort2 alone, and
// every one of them must produce its schedule; oracleSimple is
// collective over the runtime's world.
type oracleBuilder func(rt *Runtime, refs sched.Refs) (*sched.Schedule, error)

func oracleSort2(rt *Runtime, refs sched.Refs) (*sched.Schedule, error) {
	return sched.BuildSort2(rt.layout, rt.c.Rank(), refs)
}

func oracleSort1(rt *Runtime, refs sched.Refs) (*sched.Schedule, error) {
	return sched.BuildSort1(rt.layout, rt.c.Rank(), refs)
}

func oracleSimple(rt *Runtime, refs sched.Refs) (*sched.Schedule, error) {
	return sched.BuildSimple(rt.c, rt.layout, refs)
}

var oracleBuilders = map[string]oracleBuilder{"sort2": oracleSort2, "sort1": oracleSort1, "simple": oracleSimple}

// oracleLocalize rewrites refs into local/ghost references.
func oracleLocalize(refs sched.Refs, iv partition.Interval, s *sched.Schedule) ([]int32, error) {
	ladj := make([]int32, len(refs.Adj))
	for i, g := range refs.Adj {
		if iv.Contains(g) {
			ladj[i] = int32(g - iv.Lo)
			continue
		}
		slot := s.GhostSlot(g)
		if slot < 0 {
			return nil, fmt.Errorf("core: reference %d missing from ghost list", g)
		}
		ladj[i] = int32(s.NLocal + slot)
	}
	return ladj, nil
}

// checkOracle rebuilds rank state the reference way, the schedule with
// build, and compares the runtime's against it. Collective over the
// runtime's world when build is oracleSimple.
func checkOracle(rt *Runtime, build oracleBuilder) error {
	iv := rt.globalInterval()
	refs := oracleRefs(rt.tg, iv)
	s, err := build(rt, refs)
	if err != nil {
		return fmt.Errorf("reference build: %w", err)
	}
	if err := s.Validate(rt.layout); err != nil {
		return fmt.Errorf("reference schedule: %w", err)
	}
	if !rt.Schedule().Equal(s) {
		return fmt.Errorf("schedule differs from the reference")
	}
	ladj, err := oracleLocalize(refs, iv, s)
	if err != nil {
		return err
	}
	xadj, adj := rt.LocalAdj()
	if !slices.Equal(xadj, refs.Xadj) {
		return fmt.Errorf("localized row offsets differ from the reference")
	}
	if !slices.Equal(adj, ladj) {
		return fmt.Errorf("localized references differ from the reference")
	}
	want := sched.Compile(s)
	if err := want.Classify(refs.Xadj, ladj); err != nil {
		return err
	}
	got := rt.Plan()
	if got.Rank() != want.Rank() || got.NProcs() != want.NProcs() || got.NLocal() != want.NLocal() {
		return fmt.Errorf("plan header (%d,%d,%d) differs from the reference (%d,%d,%d)",
			got.Rank(), got.NProcs(), got.NLocal(), want.Rank(), want.NProcs(), want.NLocal())
	}
	if !got.Classified() {
		return fmt.Errorf("plan not classified")
	}
	if !slices.Equal(got.InteriorRows().Idx, want.InteriorRows().Idx) || !slices.Equal(got.BoundaryRows().Idx, want.BoundaryRows().Idx) {
		return fmt.Errorf("interior/boundary lists differ from the reference")
	}
	if err := checkChunkViews(got, refs.Xadj, ladj); err != nil {
		return err
	}
	if !slices.Equal(got.SendPeers(), want.SendPeers()) || !slices.Equal(got.RecvPeers(), want.RecvPeers()) {
		return fmt.Errorf("peer lists differ from the reference")
	}
	for q := 0; q < want.NProcs(); q++ {
		if !slices.Equal(got.LocalIdx(q), want.LocalIdx(q)) || !slices.Equal(got.GhostIdx(q), want.GhostIdx(q)) {
			return fmt.Errorf("index tables for peer %d differ from the reference", q)
		}
	}
	return nil
}

// oracleChunks builds a row list's chunk table from scratch: chunk c —
// rows[8c:8c+8], or fewer at the end — holds its rows' references
// interleaved when it has eight rows of one degree d > 0, and one row
// after another otherwise.
func oracleChunks(rows, xadj, adj []int32) (off, refs []int32, interleaved []bool) {
	off = []int32{0}
	for lo := 0; lo < len(rows); lo += sched.ChunkRows {
		chunk := rows[lo:min(lo+sched.ChunkRows, len(rows))]
		d := xadj[chunk[0]+1] - xadj[chunk[0]]
		lanes := len(chunk) == sched.ChunkRows && d > 0
		for _, u := range chunk {
			lanes = lanes && xadj[u+1]-xadj[u] == d
		}
		for k := int32(0); lanes && k < d; k++ {
			for _, u := range chunk {
				refs = append(refs, adj[xadj[u]+k])
			}
		}
		for _, u := range chunk {
			if !lanes {
				refs = append(refs, adj[xadj[u]:xadj[u+1]]...)
			}
		}
		off = append(off, int32(len(refs)))
		interleaved = append(interleaved, lanes)
	}
	return off, refs, interleaved
}

// checkChunkViews holds the plan's two Rows to the reference localized
// CSR: their degrees, and their chunk tables against a from-scratch
// build of the lists' tables from that CSR — so no table the plan took
// from its predecessor can show through.
func checkChunkViews(p *sched.Plan, xadj, adj []int32) error {
	for _, r := range []struct {
		name string
		rows sched.Rows
	}{{"interior", p.InteriorRows()}, {"boundary", p.BoundaryRows()}} {
		if len(r.rows.Xadj) != len(xadj) {
			return fmt.Errorf("%s rows carry %d row offsets for %d rows", r.name, len(r.rows.Xadj), len(xadj)-1)
		}
		for u := range len(xadj) - 1 {
			if r.rows.Xadj[u+1]-r.rows.Xadj[u] != xadj[u+1]-xadj[u] {
				return fmt.Errorf("%s rows give row %d another degree than the reference", r.name, u)
			}
		}
		off, refs, lanes := oracleChunks(r.rows.Idx, xadj, adj)
		if !slices.Equal(r.rows.ChunkOff, off) || !slices.Equal(r.rows.Interleaved, lanes) {
			return fmt.Errorf("%s chunk offsets or forms differ from the reference", r.name)
		}
		if !slices.Equal(r.rows.ChunkAdj, refs) {
			return fmt.Errorf("%s chunk references differ from the reference", r.name)
		}
	}
	return nil
}

// checkVector verifies a vector initialized by initValue followed the
// rebuild: sized for the new schedule, owned values those of the new
// interval, the ghost section zero — not what the array held at its
// high-water mark — and filled with the owners' values by an Exchange.
func checkVector(rt *Runtime, v *Vector) error {
	iv, s := rt.globalInterval(), rt.Schedule()
	if len(v.Data) != s.NLocal+s.NGhosts() {
		return fmt.Errorf("vector holds %d values for %d owned + %d ghosts", len(v.Data), s.NLocal, s.NGhosts())
	}
	for u, x := range v.Local() {
		if x != initValue(iv.Lo+int64(u)) {
			return fmt.Errorf("owned element %d (global %d) holds %v", u, iv.Lo+int64(u), x)
		}
	}
	for slot, x := range v.Data[s.NLocal:] {
		if x != 0 {
			return fmt.Errorf("ghost slot %d reads %v before any exchange", slot, x)
		}
	}
	if err := rt.Exchange(v); err != nil {
		return err
	}
	for slot, x := range v.Data[s.NLocal:] {
		if x != initValue(s.Ghosts[slot]) {
			return fmt.Errorf("ghost slot %d (global %d) holds %v after the exchange", slot, s.Ghosts[slot], x)
		}
	}
	return nil
}

// oracleStep is one collective change of a script; exactly one of its
// fields is set.
type oracleStep struct {
	// remap calls Remap with these weights on the active ranks.
	remap []float64
	// resize migrates to the explicit block sizes (one per member of
	// active, in order) over the members active, through Rebind:
	// members not listed retire and park, parked members listed are
	// admitted.
	resize []int64
	active []int
	// recoverTo binds the listed survivors onto their sub-world under a
	// uniform cut, the way the session recovers from a crash; the other
	// ranks are dead and leave the script.
	recoverTo []int
}

const tagOracleBarrier = 0x7a1

// oracleWorld is what the ranks of one script share: the layout in
// force, published by the first active rank before a resize so that
// parked ranks — which Rebind asks for the outgoing layout — learn it.
type oracleWorld struct {
	mu     sync.Mutex
	layout *partition.Layout
}

// runOracleScript builds a p-rank runtime under cfg and plays the steps,
// comparing every rank with the reference inspector, its schedule built
// by build, after each one.
func runOracleScript(t testing.TB, g *graph.Graph, p int, cfg Config, build oracleBuilder, steps []oracleStep) {
	t.Helper()
	// A World's section cancels the other ranks when one fails a check,
	// where a bare SPMD would leave them blocked on it.
	world, err := comm.Open("inproc", p, comm.TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	var shared oracleWorld
	err = world.SPMD(nil, func(c *comm.Comm) error {
		me := c.Rank()
		rt, err := New(c, g, cfg)
		if err != nil {
			return err
		}
		v := rt.NewVector()
		v.SetByGlobal(initValue)
		active := make([]int, p)
		for i := range active {
			active[i] = i
		}
		check := func(label string) error {
			if !slices.Contains(active, me) {
				if !rt.Parked() || rt.Plan() != nil || rt.Schedule() != nil || rt.LocalN() != 0 || len(v.Data) != 0 {
					return fmt.Errorf("rank %d %s: retired but not parked and empty", me, label)
				}
				if xadj, adj := rt.LocalAdj(); len(xadj) != 0 || len(adj) != 0 {
					return fmt.Errorf("rank %d %s: parked with a localized CSR", me, label)
				}
				return nil
			}
			if err := checkOracle(rt, build); err != nil {
				return fmt.Errorf("rank %d %s: %w", me, label, err)
			}
			if err := checkVector(rt, v); err != nil {
				return fmt.Errorf("rank %d %s: %w", me, label, err)
			}
			return nil
		}
		if err := check("fresh"); err != nil {
			return err
		}
		for i, st := range steps {
			label := fmt.Sprintf("step %d", i)
			switch {
			case st.remap != nil:
				if !slices.Contains(active, me) {
					continue
				}
				before := rt.Plan()
				stats, err := rt.Remap(st.remap)
				if err != nil {
					return err
				}
				if stats.Changed && rt.Plan() == before {
					return fmt.Errorf("rank %d %s: Remap returned the plan it had", me, label)
				}
				if !stats.Changed {
					// Nothing was rebuilt: the ghosts still hold what the
					// last check's exchange brought.
					clear(v.Data[rt.LocalN():])
				}
			case st.resize != nil:
				if active[0] == me {
					shared.mu.Lock()
					shared.layout = rt.Layout()
					shared.mu.Unlock()
				}
				if err := c.Barrier(tagOracleBarrier); err != nil {
					return err
				}
				shared.mu.Lock()
				old := shared.layout
				shared.mu.Unlock()
				if err := c.Barrier(tagOracleBarrier); err != nil {
					return err
				}
				next, err := partition.NewFromSizes(st.resize, identityArrangement(len(st.resize)))
				if err != nil {
					return err
				}
				wasActive := slices.Contains(active, me)
				oldActive := active
				active = st.active
				if !wasActive && !slices.Contains(active, me) {
					continue
				}
				var sub *comm.Comm
				if slices.Contains(active, me) {
					if sub, err = c.Sub(active); err != nil {
						return err
					}
				}
				_, err = rt.Rebind(Rebind{Carrier: c, Sub: sub, Old: old, New: next, OldProcs: oldActive, NewProcs: active})
				if err != nil {
					return err
				}
			case st.recoverTo != nil:
				active = st.recoverTo
				if !slices.Contains(active, me) {
					return nil
				}
				sub, err := c.Sub(active)
				if err != nil {
					return err
				}
				w := make([]float64, len(active))
				for i := range w {
					w[i] = 1
				}
				layout, err := rt.CutLayout(w)
				if err != nil {
					return err
				}
				if err := rt.Bind(sub, layout); err != nil {
					return err
				}
				// A recovery restores the checkpoint over whatever the
				// vectors held.
				v.SetByGlobal(initValue)
				clear(v.Data[rt.LocalN():])
			}
			if err := check(label); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// oracleConfigs returns the three layout kinds — flat, vertex-weighted
// and hierarchical — for a p-rank world on g.
func oracleConfigs(g *graph.Graph, p int) map[string]Config {
	degree := make([]float64, g.N)
	for v := range degree {
		degree[v] = float64(1 + g.Degree(v))
	}
	groups := make([]int, p)
	for r := range groups {
		groups[r] = 2 * r / max(p, 1)
	}
	return map[string]Config{
		"flat":     {Order: order.RCB},
		"weighted": {Order: order.RCB, VertexWeights: degree},
		"hier":     {Order: order.RCB, Groups: groups},
	}
}

// TestInspectorEqualsReference plays remaps, explicit re-cuts (growing,
// shrinking and empty intervals), membership transitions with parking
// and re-admission, and a recovery bind, and demands the reference
// inspector's result after every step — with each of the paper's three
// builders making the reference schedule, and for each kind of layout —
// so storage the runtime reuses can never show through.
func TestInspectorEqualsReference(t *testing.T) {
	g, err := mesh.GridTriangulated(9, 9, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(g.N)
	all := []int{0, 1, 2, 3}
	scripts := map[string][]oracleStep{
		"remap there and back": {
			{remap: []float64{4, 1, 1, 1}},
			{remap: []float64{1, 1, 1, 4}},
			{remap: []float64{1, 1, 1, 1}},
			{remap: []float64{1, 9, 1, 1}},
			{remap: []float64{1, 1, 1, 1}},
		},
		"explicit cuts with empty intervals": {
			{resize: []int64{n / 2, 0, n / 4, n - n/2 - n/4}, active: all},
			{resize: []int64{5, n - 15, 5, 5}, active: all},
			{resize: []int64{0, 0, n, 0}, active: all},
			{resize: []int64{n / 4, n / 4, n / 4, n - 3*(n/4)}, active: all},
			{remap: []float64{1, 2, 3, 4}},
		},
		"shrink, park, grow": {
			{resize: []int64{n / 3, n / 3, n - 2*(n/3)}, active: []int{0, 1, 2}},
			{remap: []float64{3, 1, 1}},
			{resize: []int64{n / 2, n - n/2}, active: []int{1, 2}},
			{resize: []int64{n / 4, n / 4, n / 4, n - 3*(n/4)}, active: all},
			{resize: []int64{n - 7, 7}, active: []int{3, 0}},
			{resize: []int64{7, n / 2, n - n/2 - 14, 7}, active: []int{2, 3, 0, 1}},
			{remap: []float64{1, 1, 1, 1}},
		},
		"recover onto the survivors": {
			{remap: []float64{1, 1, 5, 1}},
			{recoverTo: []int{0, 1, 3}},
			{remap: []float64{2, 1, 1}},
			{remap: []float64{1, 1, 1}},
		},
	}
	for sname, build := range oracleBuilders {
		for cname, cfg := range oracleConfigs(g, 4) {
			for name, steps := range scripts {
				t.Run(sname+"/"+cname+"/"+name, func(t *testing.T) {
					runOracleScript(t, g, 4, cfg, build, steps)
				})
			}
		}
		// One rank owns everything: no ghost, no peer, every row interior.
		for cname, cfg := range oracleConfigs(g, 1) {
			t.Run(sname+"/"+cname+"/p=1", func(t *testing.T) {
				runOracleScript(t, g, 1, cfg, build, []oracleStep{
					{remap: []float64{1}}, {remap: []float64{2}},
				})
			})
		}
	}
}

// TestInspectorRangeCheck plants a reference outside [0, n) — past the
// end, and negative — in the transformed graph and demands the error the
// reference inspector reports: the pass sets such a reference aside as
// off-interval, so the builder's validation still sees it.
func TestInspectorRangeCheck(t *testing.T) {
	g := testMesh(t)
	for sname, build := range oracleBuilders {
		for _, bad := range []int32{int32(g.N) + 5, -1} {
			// p=1 runs every builder without a peer to strand; p=2 puts
			// the bad row on rank 1 under the communication-free builders.
			for _, p := range []int{1, 2} {
				if p > 1 && sname == "simple" {
					continue
				}
				t.Run(fmt.Sprintf("%s/ref=%d/p=%d", sname, bad, p), func(t *testing.T) {
					world := openWorld(t, p)
					err := world.SPMD(nil, func(c *comm.Comm) error {
						rt, err := New(c, g, Config{Order: order.RCB})
						if err != nil {
							return err
						}
						tg := *rt.tg
						tg.Adj = slices.Clone(tg.Adj)
						tg.Adj[len(tg.Adj)-2] = bad // in the last row: rank p-1's
						rt.tg = &tg
						_, want := build(rt, oracleRefs(rt.tg, rt.globalInterval()))
						got := rt.rebuild()
						if c.Rank() != p-1 {
							if got != nil || want != nil {
								return fmt.Errorf("rank %d does not own the bad row: got %v, reference %v", c.Rank(), got, want)
							}
							return nil
						}
						if want == nil || got == nil || got.Error() != want.Error() {
							return fmt.Errorf("got error %v, the reference reports %v", got, want)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// randomGraph draws n vertices with edges mostly between nearby indices
// — a one-dimensional locality like a transformed mesh's — and a few
// long ones, so cuts see both thin and thick boundaries.
func randomGraph(rng *rand.Rand, n int) (*graph.Graph, error) {
	seen := map[graph.Edge]bool{}
	var edges []graph.Edge
	for i := 0; i < 3*n; i++ {
		u := rng.Intn(n)
		v := u + 1 + rng.Intn(6)
		if rng.Intn(10) == 0 {
			v = rng.Intn(n)
		}
		if v >= n || u == v {
			continue
		}
		e := graph.Edge{U: int32(min(u, v)), V: int32(max(u, v))}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	return graph.FromEdges(n, edges, nil)
}

// FuzzInspector draws a graph, a world size, an oracle builder, vertex weights
// or not, and a sequence of remaps, explicit re-cuts and membership
// changes — parked ranks included — and checks every rank against the
// reference inspector after each step.
func FuzzInspector(f *testing.F) {
	f.Add(int64(1), uint16(60), uint8(3), uint8(4))
	f.Add(int64(2), uint16(200), uint8(4), uint8(9))
	f.Add(int64(3), uint16(7), uint8(5), uint8(6))
	f.Add(int64(4), uint16(400), uint8(2), uint8(12))
	f.Add(int64(5), uint16(1), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nv uint16, np, nsteps uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nv)%512
		p := 1 + int(np)%5
		g, err := randomGraph(rng, n)
		if err != nil {
			t.Fatal(err)
		}
		build := []oracleBuilder{oracleSort2, oracleSort1, oracleSimple}[rng.Intn(3)]
		rng.Intn(3) // a draw nothing reads: it keeps every corpus entry's script
		var cfg Config
		if rng.Intn(2) == 0 {
			cfg.VertexWeights = make([]float64, n)
			for v := range cfg.VertexWeights {
				cfg.VertexWeights[v] = 0.5 + rng.Float64()
			}
		}
		members := p // size of the active set as the script goes
		var steps []oracleStep
		for i := 0; i < int(nsteps)%16; i++ {
			switch rng.Intn(4) {
			case 0, 1:
				w := make([]float64, members)
				for r := range w {
					w[r] = 0.25 + 4*rng.Float64()
				}
				steps = append(steps, oracleStep{remap: w})
			case 2:
				// A random active set in random order, cut at random
				// points: empty intervals included.
				active := rng.Perm(p)[:1+rng.Intn(p)]
				cuts := make([]int, len(active)-1)
				for c := range cuts {
					cuts[c] = rng.Intn(n + 1)
				}
				slices.Sort(cuts)
				sizes := make([]int64, len(active))
				prev := 0
				for r := range sizes {
					next := n
					if r < len(cuts) {
						next = cuts[r]
					}
					sizes[r], prev = int64(next-prev), next
				}
				steps = append(steps, oracleStep{resize: sizes, active: active})
				members = len(active)
			case 3:
				// The draws of a graph replacement, which no longer
				// exists: they keep every corpus entry's script.
				if _, err := randomGraph(rng, n); err != nil {
					t.Fatal(err)
				}
			}
		}
		runOracleScript(t, g, p, cfg, build, steps)
	})
}

// TestInspectorEqualsReferenceAcrossWindows repeats the remap script on
// a graph large enough that every rank's row lists span several plan
// windows, where the degree grouping reorders rows.
func TestInspectorEqualsReferenceAcrossWindows(t *testing.T) {
	g, err := mesh.RandomGeometric(2400, 0.035, 11)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range oracleConfigs(g, 4) {
		t.Run(name, func(t *testing.T) {
			runOracleScript(t, g, 4, cfg, oracleSort2, []oracleStep{
				{remap: []float64{1, 2, 4, 8}},
				{remap: []float64{8, 4, 2, 1}},
				{remap: []float64{1, 1, 1, 1}},
			})
		})
	}
}

// TestChunkViewsEqualReference plays remaps, a shrink and a grow and a
// recovery on the benchmark's kind of mesh, where degrees repeat and
// most references sit in uniform chunks, and demands the from-scratch
// chunked views after every step. A fresh rank is first shown to read
// most of its references through them, so the comparison is not
// between two empty tables.
func TestChunkViewsEqualReference(t *testing.T) {
	g, err := mesh.GridTriangulated(60, 60, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	world := openWorld(t, 2)
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		_, adj := rt.LocalAdj()
		lanes := 0
		for _, r := range []sched.Rows{rt.Plan().InteriorRows(), rt.Plan().BoundaryRows()} {
			for c, on := range r.Interleaved {
				if on {
					lanes += int(r.ChunkOff[c+1] - r.ChunkOff[c])
				}
			}
		}
		if 10*lanes < 8*len(adj) {
			return fmt.Errorf("rank %d: interleaved chunks hold %d of %d references, want at least 80 %%", c.Rank(), lanes, len(adj))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(g.N)
	all := []int{0, 1, 2, 3}
	for name, cfg := range oracleConfigs(g, 4) {
		t.Run(name, func(t *testing.T) {
			runOracleScript(t, g, 4, cfg, oracleSort2, []oracleStep{
				{remap: []float64{3, 1, 1, 1}},
				{resize: []int64{n / 3, n / 3, n - 2*(n/3)}, active: []int{0, 1, 2}},
				{remap: []float64{1, 2, 1}},
				{resize: []int64{n / 4, n / 4, n / 4, n - 3*(n/4)}, active: all},
				{recoverTo: []int{0, 2, 3}},
				{remap: []float64{1, 1, 2}},
			})
		})
	}
}

// TestInspectorTimeCoversThePass pins what LastInspectorTime and
// RemapStats.Inspector mean on a real clock: the whole of Phase B. The
// balancer prices a remap with this figure, and the schedule builder it
// used to time alone now sees only the off-interval references and
// takes microseconds — so the figure must be at least one pass over the
// rank's rows, and at least one builder call, each re-timed here on the
// state the remap left (the minimum of several warm runs, against a
// figure that was measured cold).
func TestInspectorTimeCoversThePass(t *testing.T) {
	g, err := mesh.GridTriangulated(120, 120, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	fastest := func(f func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			f()
			best = min(best, time.Since(t0))
		}
		return best
	}
	world := openWorld(t, 2)
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		rt.NewVector()
		st, err := rt.Remap([]float64{3, 1})
		if err != nil {
			return err
		}
		insp := rt.LastInspectorTime()
		if st.Inspector != insp || insp <= 0 || insp > st.Total {
			return fmt.Errorf("RemapStats.Inspector %v, LastInspectorTime %v, Total %v", st.Inspector, insp, st.Total)
		}
		pass := fastest(func() { rt.scanRefs(rt.globalInterval()) })
		build := fastest(func() { _, err = sched.BuildSort2(rt.layout, c.Rank(), rt.off) })
		if err != nil {
			return err
		}
		t.Logf("rank %d: inspector %v, of which one pass >= %v and one builder call >= %v", c.Rank(), insp, pass, build)
		if insp < pass || insp < build {
			return fmt.Errorf("inspector time %v is less than its pass (%v) or its builder call (%v)", insp, pass, build)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
