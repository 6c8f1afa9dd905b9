package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"stance/internal/geom"
)

// path returns a path graph 0-1-2-...-(n-1).
func path(t testing.TB, n int) *Graph {
	t.Helper()
	edges := make([]Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{int32(i), int32(i + 1)})
	}
	g, err := FromEdges(n, edges, nil)
	if err != nil {
		t.Fatalf("path(%d): %v", n, err)
	}
	return g
}

// randomGraph returns a connected random graph: a random spanning tree
// plus extra random edges.
func randomGraph(t testing.TB, n, extra int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ u, v int32 }
	seen := map[pair]bool{}
	var edges []Edge
	addEdge := func(u, v int32) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[pair{u, v}] {
			return
		}
		seen[pair{u, v}] = true
		edges = append(edges, Edge{u, v})
	}
	for i := 1; i < n; i++ {
		addEdge(int32(i), int32(rng.Intn(i)))
	}
	for i := 0; i < extra; i++ {
		addEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g, err := FromEdges(n, edges, nil)
	if err != nil {
		t.Fatalf("randomGraph: %v", err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.NumEdges() != 4 {
		t.Fatalf("N=%d E=%d", g.N, g.NumEdges())
	}
	for v := 0; v < 4; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("Degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	want := []int32{1, 3}
	got := g.Neighbors(0)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Neighbors(0) = %v, want %v", got, want)
	}
}

func TestFromEdgesErrors(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"self-loop", 3, []Edge{{1, 1}}},
		{"out of range", 3, []Edge{{0, 3}}},
		{"negative", 3, []Edge{{-1, 0}}},
		{"duplicate", 3, []Edge{{0, 1}, {1, 0}}},
	}
	for _, c := range cases {
		if _, err := FromEdges(c.n, c.edges, nil); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := FromEdges(-1, nil, nil); err == nil {
		t.Error("negative n: expected error")
	}
	if _, err := FromEdges(2, nil, make([]geom.Point, 3)); err == nil {
		t.Error("coord mismatch: expected error")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := randomGraph(t, 50, 80, 1)
	edges := g.Edges()
	if len(edges) != g.NumEdges() {
		t.Fatalf("Edges returned %d, want %d", len(edges), g.NumEdges())
	}
	g2, err := FromEdges(g.N, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N; v++ {
		a, b := g.Neighbors(v), g2.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree mismatch", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d adjacency mismatch", v)
			}
		}
	}
}

func TestPermuteIdentity(t *testing.T) {
	g := randomGraph(t, 30, 40, 2)
	perm := make([]int32, g.N)
	for i := range perm {
		perm[i] = int32(i)
	}
	ng, err := g.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N; v++ {
		a, b := g.Neighbors(v), ng.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree changed at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adjacency changed at %d", v)
			}
		}
	}
}

func TestPermutePreservesStructure(t *testing.T) {
	g := randomGraph(t, 60, 100, 3)
	rng := rand.New(rand.NewSource(4))
	perm := make([]int32, g.N)
	for i, p := range rng.Perm(g.N) {
		perm[i] = int32(p)
	}
	ng, err := g.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := ng.Validate(); err != nil {
		t.Fatalf("permuted graph invalid: %v", err)
	}
	if ng.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d -> %d", g.NumEdges(), ng.NumEdges())
	}
	// Degree multiset preserved.
	d1 := make([]int, g.N)
	d2 := make([]int, g.N)
	for v := 0; v < g.N; v++ {
		d1[v] = g.Degree(v)
		d2[v] = ng.Degree(v)
	}
	sort.Ints(d1)
	sort.Ints(d2)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("degree multiset changed")
		}
	}
	// Every original edge maps to an edge in the new graph.
	for _, e := range g.Edges() {
		u, v := perm[e.U], perm[e.V]
		found := false
		for _, w := range ng.Neighbors(int(u)) {
			if w == v {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("edge (%d,%d) lost by permutation", e.U, e.V)
		}
	}
}

func TestPermuteCoords(t *testing.T) {
	coords := []geom.Point{{X: 0}, {X: 1}, {X: 2}}
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 2}}, coords)
	if err != nil {
		t.Fatal(err)
	}
	ng, err := g.Permute([]int32{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if ng.Coords[0].X != 2 || ng.Coords[2].X != 0 {
		t.Errorf("coords not permuted: %+v", ng.Coords)
	}
}

func TestPermuteErrors(t *testing.T) {
	g := path(t, 3)
	if _, err := g.Permute([]int32{0, 1}); err == nil {
		t.Error("short perm: expected error")
	}
	if _, err := g.Permute([]int32{0, 1, 3}); err == nil {
		t.Error("out-of-range perm: expected error")
	}
	if _, err := g.Permute([]int32{0, 1, 1}); err == nil {
		t.Error("non-injective perm: expected error")
	}
}

// TestPermuteEqualsReference checks the row-parallel Permute against
// mapping every row through perm and sorting it, on CSRs large enough
// to be split across goroutines: symmetric and not, with empty rows
// and rows longer than the insertion-sort cutoff.
func TestPermuteEqualsReference(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(5))
	nonSym := &Graph{N: n, Xadj: make([]int32, n+1), Coords: make([]geom.Point, n)}
	for v := 0; v < n; v++ {
		deg := rng.Intn(12) // about one row in twelve is empty
		if v%97 == 0 {
			deg = insertionMax + 1 + rng.Intn(40)
		}
		for i := 0; i < deg; i++ {
			nonSym.Adj = append(nonSym.Adj, int32(rng.Intn(n)))
		}
		nonSym.Xadj[v+1] = int32(len(nonSym.Adj))
		nonSym.Coords[v] = geom.Point{X: float64(v), Y: rng.Float64()}
	}
	graphs := map[string]*Graph{
		"symmetric":     randomGraph(t, n, 3*n, 9),
		"non-symmetric": nonSym,
	}
	for name, g := range graphs {
		if 1+len(g.Adj)/permuteGrain < 4 {
			t.Fatalf("%s: %d entries leave some of 4 goroutines idle", name, len(g.Adj))
		}
		perm := make([]int32, n)
		for i, p := range rng.Perm(n) {
			perm[i] = int32(p)
		}
		inv := make([]int, n)
		for old, nw := range perm {
			inv[nw] = old
		}
		want := &Graph{N: n, Xadj: []int32{0}}
		for _, old := range inv {
			row := make([]int32, 0, g.Degree(old))
			for _, w := range g.Neighbors(old) {
				row = append(row, perm[w])
			}
			slices.Sort(row)
			want.Adj = append(want.Adj, row...)
			want.Xadj = append(want.Xadj, int32(len(want.Adj)))
			if g.Coords != nil {
				want.Coords = append(want.Coords, g.Coords[old])
			}
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got, err := g.Permute(perm)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: %v", name, procs, err)
			}
			if got.N != n || !slices.Equal(got.Xadj, want.Xadj) || !slices.Equal(got.Adj, want.Adj) || !slices.Equal(got.Coords, want.Coords) {
				t.Errorf("%s GOMAXPROCS=%d: differs from the map-and-sort reference", name, procs)
			}
		}
	}
}

func TestConnected(t *testing.T) {
	g := path(t, 10)
	if !g.Connected() {
		t.Error("path should be connected")
	}
	if g.Components() != 1 {
		t.Error("path should have 1 component")
	}
	g2, err := FromEdges(4, []Edge{{0, 1}, {2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Connected() {
		t.Error("two components reported connected")
	}
	if g2.Components() != 2 {
		t.Errorf("Components = %d, want 2", g2.Components())
	}
	empty, err := FromEdges(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !empty.Connected() {
		t.Error("empty graph should be connected")
	}
}

func TestEdgeCut(t *testing.T) {
	g := path(t, 6)
	part := []int32{0, 0, 0, 1, 1, 1}
	cut, err := g.EdgeCut(part)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 1 {
		t.Errorf("EdgeCut = %d, want 1", cut)
	}
	alt := []int32{0, 1, 0, 1, 0, 1}
	cut, err = g.EdgeCut(alt)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 5 {
		t.Errorf("alternating EdgeCut = %d, want 5", cut)
	}
	if _, err := g.EdgeCut([]int32{0}); err == nil {
		t.Error("short part: expected error")
	}
}

func TestBandwidthAndSpan(t *testing.T) {
	g := path(t, 5)
	if bw := g.Bandwidth(); bw != 1 {
		t.Errorf("path Bandwidth = %d, want 1", bw)
	}
	if span := g.MeanEdgeSpan(); span != 1 {
		t.Errorf("path MeanEdgeSpan = %v, want 1", span)
	}
	// Reversing the path preserves bandwidth; a shuffle usually grows it.
	rev := make([]int32, g.N)
	for i := range rev {
		rev[i] = int32(g.N - 1 - i)
	}
	ng, err := g.Permute(rev)
	if err != nil {
		t.Fatal(err)
	}
	if bw := ng.Bandwidth(); bw != 1 {
		t.Errorf("reversed path Bandwidth = %d, want 1", bw)
	}
	empty, _ := FromEdges(3, nil, nil)
	if empty.MeanEdgeSpan() != 0 || empty.Bandwidth() != 0 {
		t.Error("edgeless graph should have zero span and bandwidth")
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := path(t, 4) // degrees 1,2,2,1
	h := g.DegreeHistogram()
	if len(h) != 3 || h[1] != 2 || h[2] != 2 {
		t.Errorf("DegreeHistogram = %v", h)
	}
}

func TestPermuteIsBijectionProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		g := randomGraph(t, n, n, seed)
		rng := rand.New(rand.NewSource(seed + 1))
		perm := make([]int32, n)
		for i, p := range rng.Perm(n) {
			perm[i] = int32(p)
		}
		ng, err := g.Permute(perm)
		if err != nil {
			return false
		}
		// Applying the inverse permutation restores the original.
		inv := make([]int32, n)
		for old, nw := range perm {
			inv[nw] = int32(old)
		}
		back, err := ng.Permute(inv)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			a, b := g.Neighbors(v), back.Neighbors(v)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := path(t, 4)
	bad := *g
	bad.Adj = append([]int32(nil), g.Adj...)
	bad.Adj[0] = 99
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range neighbor not caught")
	}
	bad2 := *g
	bad2.Xadj = append([]int32(nil), g.Xadj...)
	bad2.Xadj[1] = 0
	if err := bad2.Validate(); err == nil {
		t.Error("inconsistent Xadj not caught")
	}
	bad3 := *g
	bad3.Adj = append([]int32(nil), g.Adj...)
	// Break symmetry: vertex 0's neighbor list says 2, but 2 does not list 0.
	bad3.Adj[0] = 2
	if err := bad3.Validate(); err == nil {
		t.Error("asymmetry not caught")
	}
}
