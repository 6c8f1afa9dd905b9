package sched

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"stance/internal/comm"
	"stance/internal/graph"
	"stance/internal/mesh"
	"stance/internal/partition"
)

// refsFor extracts rank's access pattern from a (transformed) global
// graph under a layout: local element u reads all neighbors of global
// vertex Interval.Lo+u.
func refsFor(t testing.TB, g *graph.Graph, layout *partition.Layout, rank int) Refs {
	t.Helper()
	iv := layout.Interval(rank)
	r := Refs{Xadj: []int32{0}}
	for gg := iv.Lo; gg < iv.Hi; gg++ {
		for _, w := range g.Neighbors(int(gg)) {
			r.Adj = append(r.Adj, int64(w))
		}
		r.Xadj = append(r.Xadj, int32(len(r.Adj)))
	}
	return r
}

// grid3 builds the 3x3 4-neighbor grid used by the worked example, in
// the spirit of the paper's Figure 4 (9 nodes on 3 processors with
// symmetric accesses).
func grid3(t *testing.T) *graph.Graph {
	t.Helper()
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 6, V: 7}, {U: 7, V: 8},
		{U: 0, V: 3}, {U: 1, V: 4}, {U: 2, V: 5}, {U: 3, V: 6}, {U: 4, V: 7}, {U: 5, V: 8},
	}
	g, err := graph.FromEdges(9, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFigure4StyleWorkedExample(t *testing.T) {
	g := grid3(t)
	layout, err := partition.NewUniform(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Middle processor: owns globals {3,4,5}, bordered on both sides.
	s, err := BuildSort1(layout, 1, refsFor(t, g, layout, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(layout); err != nil {
		t.Fatal(err)
	}
	wantGhosts := []int64{0, 1, 2, 6, 7, 8}
	if len(s.Ghosts) != len(wantGhosts) {
		t.Fatalf("ghosts = %v", s.Ghosts)
	}
	for i := range wantGhosts {
		if s.Ghosts[i] != wantGhosts[i] {
			t.Fatalf("ghosts = %v, want %v", s.Ghosts, wantGhosts)
		}
	}
	wantSend := map[int][]int32{0: {0, 1, 2}, 2: {0, 1, 2}}
	for q, want := range wantSend {
		got := s.SendIdx[q]
		if len(got) != len(want) {
			t.Fatalf("SendIdx[%d] = %v, want %v", q, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SendIdx[%d] = %v, want %v", q, got, want)
			}
		}
	}
	wantRecv := map[int][]int32{0: {0, 1, 2}, 2: {3, 4, 5}}
	for q, want := range wantRecv {
		got := s.RecvSlot[q]
		if len(got) != len(want) {
			t.Fatalf("RecvSlot[%d] = %v, want %v", q, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("RecvSlot[%d] = %v, want %v", q, got, want)
			}
		}
	}
	if s.TotalSend() != 6 || s.TotalRecv() != 6 || s.Peers() != 2 || s.NGhosts() != 6 {
		t.Errorf("stats: send=%d recv=%d peers=%d ghosts=%d",
			s.TotalSend(), s.TotalRecv(), s.Peers(), s.NGhosts())
	}
	// Edge processor: owns {0,1,2}, one neighbor only.
	s0, err := BuildSort1(layout, 0, refsFor(t, g, layout, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s0.Peers() != 1 || s0.NGhosts() != 3 {
		t.Errorf("rank 0: peers=%d ghosts=%d", s0.Peers(), s0.NGhosts())
	}
}

func TestSort1EqualsSort2(t *testing.T) {
	meshes := map[string]*graph.Graph{}
	var err error
	meshes["grid"], err = mesh.GridTriangulated(12, 9, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	meshes["honeycomb"], err = mesh.Honeycomb(8, 13)
	if err != nil {
		t.Fatal(err)
	}
	meshes["random"], err = mesh.RandomGeometric(150, 0.12, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for name, g := range meshes {
		for _, p := range []int{1, 2, 3, 5} {
			w := make([]float64, p)
			for i := range w {
				w[i] = rng.Float64() + 0.2
			}
			layout, err := partition.NewBlock(int64(g.N), w)
			if err != nil {
				t.Fatal(err)
			}
			for rank := 0; rank < p; rank++ {
				refs := refsFor(t, g, layout, rank)
				s1, err := BuildSort1(layout, rank, refs)
				if err != nil {
					t.Fatalf("%s p=%d rank=%d sort1: %v", name, p, rank, err)
				}
				s2, err := BuildSort2(layout, rank, refs)
				if err != nil {
					t.Fatalf("%s p=%d rank=%d sort2: %v", name, p, rank, err)
				}
				if !s1.Equal(s2) {
					t.Fatalf("%s p=%d rank=%d: sort1 != sort2", name, p, rank)
				}
				if err := s1.Validate(layout); err != nil {
					t.Fatalf("%s p=%d rank=%d: %v", name, p, rank, err)
				}
			}
		}
	}
}

func TestSimpleEqualsSort2(t *testing.T) {
	g, err := mesh.GridTriangulated(10, 10, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 5} {
		layout, err := partition.NewBlock(int64(g.N), weights(p))
		if err != nil {
			t.Fatal(err)
		}
		world, err := comm.Open("inproc", p, comm.TransportOptions{})
		if err != nil {
			t.Fatal(err)
		}
		schedules := make([]*Schedule, p)
		err = world.SPMD(nil, func(c *comm.Comm) error {
			s, err := BuildSimple(c, layout, refsFor(t, g, layout, c.Rank()))
			if err != nil {
				return err
			}
			schedules[c.Rank()] = s
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		world.Close()
		for rank := 0; rank < p; rank++ {
			want, err := BuildSort2(layout, rank, refsFor(t, g, layout, rank))
			if err != nil {
				t.Fatal(err)
			}
			if !schedules[rank].Equal(want) {
				t.Fatalf("p=%d rank=%d: simple != sort2", p, rank)
			}
		}
	}
}

func weights(p int) []float64 {
	w := make([]float64, p)
	for i := range w {
		w[i] = 1
	}
	return w
}

// Cross-rank pairing: rank a's send list to b must name exactly the
// elements rank b expects from a, in the same order.
func TestSchedulesPairUp(t *testing.T) {
	g, err := mesh.Honeycomb(10, 12)
	if err != nil {
		t.Fatal(err)
	}
	p := 4
	layout, err := partition.NewBlock(int64(g.N), []float64{1, 2, 1.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	schedules := make([]*Schedule, p)
	for rank := 0; rank < p; rank++ {
		schedules[rank], err = BuildSort2(layout, rank, refsFor(t, g, layout, rank))
		if err != nil {
			t.Fatal(err)
		}
	}
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			if a == b {
				continue
			}
			send := schedules[a].SendIdx[b]
			recv := schedules[b].RecvSlot[a]
			if len(send) != len(recv) {
				t.Fatalf("send %d->%d has %d elements, recv expects %d", a, b, len(send), len(recv))
			}
			ivA := layout.Interval(a)
			for i := range send {
				sentGlobal := ivA.Lo + int64(send[i])
				wantGlobal := schedules[b].Ghosts[recv[i]]
				if sentGlobal != wantGlobal {
					t.Fatalf("transfer %d->%d element %d: sends global %d, receiver expects %d",
						a, b, i, sentGlobal, wantGlobal)
				}
			}
		}
	}
}

func TestValidateCatchesBadSchedules(t *testing.T) {
	g := grid3(t)
	layout, _ := partition.NewUniform(9, 3)
	base, err := BuildSort2(layout, 1, refsFor(t, g, layout, 1))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(f func(*Schedule)) *Schedule {
		s := *base
		s.SendIdx = append([][]int32(nil), base.SendIdx...)
		for q := range s.SendIdx {
			s.SendIdx[q] = append([]int32(nil), base.SendIdx[q]...)
		}
		s.RecvSlot = append([][]int32(nil), base.RecvSlot...)
		for q := range s.RecvSlot {
			s.RecvSlot[q] = append([]int32(nil), base.RecvSlot[q]...)
		}
		s.Ghosts = append([]int64(nil), base.Ghosts...)
		f(&s)
		return &s
	}
	cases := map[string]*Schedule{
		"send out of range": corrupt(func(s *Schedule) { s.SendIdx[0][0] = 99 }),
		"slot out of range": corrupt(func(s *Schedule) { s.RecvSlot[0][0] = 99 }),
		"slot duplicated":   corrupt(func(s *Schedule) { s.RecvSlot[0][1] = s.RecvSlot[0][0] }),
		"ghosts unsorted":   corrupt(func(s *Schedule) { s.Ghosts[0], s.Ghosts[1] = s.Ghosts[1], s.Ghosts[0] }),
		"wrong owner":       corrupt(func(s *Schedule) { s.RecvSlot[0], s.RecvSlot[2] = s.RecvSlot[2], s.RecvSlot[0] }),
		"self send":         corrupt(func(s *Schedule) { s.SendIdx[1] = []int32{0} }),
	}
	for name, s := range cases {
		if err := s.Validate(layout); err == nil {
			t.Errorf("%s: not caught", name)
		}
	}
	if err := base.Validate(layout); err != nil {
		t.Errorf("pristine schedule rejected: %v", err)
	}
}

func TestRefsValidate(t *testing.T) {
	layout, _ := partition.NewUniform(9, 3)
	bad := []Refs{
		{},                                     // empty
		{Xadj: []int32{0, 1}, Adj: []int64{1}}, // wrong local count
		{Xadj: []int32{0, 1, 2, 5}, Adj: []int64{1, 2}}, // xadj/adj mismatch
		{Xadj: []int32{0, 1, 1, 1}, Adj: []int64{99}},   // ref out of range
	}
	for i, r := range bad {
		if _, err := BuildSort2(layout, 0, r); err == nil {
			t.Errorf("bad refs %d accepted", i)
		}
	}
}

func TestGhostSlot(t *testing.T) {
	g := grid3(t)
	layout, _ := partition.NewUniform(9, 3)
	s, err := BuildSort2(layout, 1, refsFor(t, g, layout, 1))
	if err != nil {
		t.Fatal(err)
	}
	for slot, ghost := range s.Ghosts {
		if got := s.GhostSlot(ghost); got != slot {
			t.Errorf("GhostSlot(%d) = %d, want %d", ghost, got, slot)
		}
	}
	if s.GhostSlot(4) != -1 { // 4 is locally owned
		t.Error("locally owned index reported as ghost")
	}
}

func TestSingleProcessorNoGhosts(t *testing.T) {
	g := grid3(t)
	layout, _ := partition.NewUniform(9, 1)
	s, err := BuildSort2(layout, 0, refsFor(t, g, layout, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s.NGhosts() != 0 || s.TotalSend() != 0 || s.Peers() != 0 {
		t.Errorf("single-processor schedule not empty: %+v", s)
	}
}

func TestDedupHashMatchesMap(t *testing.T) {
	f := func(refs []int64) bool {
		a := DedupHash(refs)
		b := DedupMap(refs)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDedupKeepsFirstSeenOrder(t *testing.T) {
	refs := []int64{5, 3, 5, 7, 3, 3, 1, 7}
	want := []int64{5, 3, 7, 1}
	got := DedupHash(refs)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestHashSetGrowth(t *testing.T) {
	h := newHashSet(2)
	const n = 10000
	for i := int64(0); i < n; i++ {
		if !h.Insert(i * 1000003) {
			t.Fatalf("fresh key %d reported duplicate", i)
		}
	}
	if h.Len() != n {
		t.Fatalf("Len = %d, want %d", h.Len(), n)
	}
	for i := int64(0); i < n; i++ {
		if !h.Contains(i * 1000003) {
			t.Fatalf("key %d lost after growth", i)
		}
		if h.Insert(i * 1000003) {
			t.Fatalf("duplicate key %d accepted", i)
		}
	}
	if h.Contains(999) {
		t.Error("absent key reported present")
	}
}

func TestHashSetNegativeKeys(t *testing.T) {
	h := newHashSet(4)
	keys := []int64{-1, -999999, 0, 42, -42}
	for _, k := range keys {
		if !h.Insert(k) {
			t.Errorf("Insert(%d) reported duplicate", k)
		}
	}
	for _, k := range keys {
		if !h.Contains(k) {
			t.Errorf("Contains(%d) = false", k)
		}
	}
}

// Sorting-based schedules with heavily skewed weights still pair up.
func TestSkewedWeights(t *testing.T) {
	g, err := mesh.Honeycomb(6, 20)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := partition.NewBlock(int64(g.N), []float64{0.01, 0.97, 0.01, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 4; rank++ {
		s, err := BuildSort2(layout, rank, refsFor(t, g, layout, rank))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(layout); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// Ghost ordering invariant: within each receive segment the globals
// are ascending, matching the sender's ascending local traversal.
func TestRecvSegmentsSortedByGlobal(t *testing.T) {
	g, err := mesh.GridTriangulated(9, 9, 0.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := partition.NewBlock(int64(g.N), []float64{2, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 3; rank++ {
		s, err := BuildSort1(layout, rank, refsFor(t, g, layout, rank))
		if err != nil {
			t.Fatal(err)
		}
		for q, slots := range s.RecvSlot {
			globals := make([]int64, len(slots))
			for i, slot := range slots {
				globals[i] = s.Ghosts[slot]
			}
			if !sort.SliceIsSorted(globals, func(i, j int) bool { return globals[i] < globals[j] }) {
				t.Fatalf("rank %d recv segment from %d not sorted: %v", rank, q, globals)
			}
		}
	}
}
