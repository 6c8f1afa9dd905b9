package order

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"stance/internal/geom"
	"stance/internal/graph"
	"stance/internal/mesh"
)

// The reference bisection: a stable sort of the whole subset by
// (key, id) at every level, keys recomputed through a closure per
// comparison. RCB and RIB must return exactly its permutation.

type refAxis func(ids []int32, coords []geom.Point) func(v int32) float64

func refAxisLongest(ids []int32, coords []geom.Point) func(v int32) float64 {
	b := geom.EmptyBox()
	for _, v := range ids {
		b = b.Extend(coords[v])
	}
	axis := b.LongestAxis()
	return func(v int32) float64 { return coords[v].Coord(axis) }
}

func refAxisPrincipal(ids []int32, coords []geom.Point) func(v int32) float64 {
	var c geom.Point
	for _, v := range ids {
		c = c.Add(coords[v])
	}
	c = c.Scale(1 / float64(len(ids)))
	var m [3][3]float64
	for _, v := range ids {
		d := coords[v].Sub(c)
		dv := [3]float64{d.X, d.Y, d.Z}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m[i][j] += dv[i] * dv[j]
			}
		}
	}
	vec := [3]float64{1, 0.5, 0.25}
	for it := 0; it < 50; it++ {
		var nv [3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				nv[i] += m[i][j] * vec[j]
			}
		}
		norm := math.Sqrt(nv[0]*nv[0] + nv[1]*nv[1] + nv[2]*nv[2])
		if norm == 0 {
			break
		}
		for i := range nv {
			nv[i] /= norm
		}
		vec = nv
	}
	dir := geom.Point{X: vec[0], Y: vec[1], Z: vec[2]}
	return func(v int32) float64 { return coords[v].Sub(c).Dot(dir) }
}

func refRecurse(ids []int32, coords []geom.Point, ax refAxis) {
	if len(ids) <= 2 {
		if len(ids) == 2 {
			key := ax(ids, coords)
			if key(ids[0]) > key(ids[1]) || (key(ids[0]) == key(ids[1]) && ids[0] > ids[1]) {
				ids[0], ids[1] = ids[1], ids[0]
			}
		}
		return
	}
	key := ax(ids, coords)
	sort.SliceStable(ids, func(i, j int) bool {
		ki, kj := key(ids[i]), key(ids[j])
		if ki != kj {
			return ki < kj
		}
		return ids[i] < ids[j]
	})
	mid := len(ids) / 2
	refRecurse(ids[:mid], coords, ax)
	refRecurse(ids[mid:], coords, ax)
}

func refBisect(g *graph.Graph, ax refAxis) []int32 {
	ids := make([]int32, g.N)
	for i := range ids {
		ids[i] = int32(i)
	}
	refRecurse(ids, g.Coords, ax)
	return fromRanked(ids)
}

// cloud is an edgeless graph over the given points: the coordinate
// orderings read nothing else.
func cloud(pts []geom.Point) *graph.Graph {
	return &graph.Graph{N: len(pts), Xadj: make([]int32, len(pts)+1), Coords: pts}
}

// checkAgainstReference asserts RCB and RIB equal the reference on g.
func checkAgainstReference(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	for _, tc := range []struct {
		name string
		f    Func
		ax   refAxis
	}{{"rcb", RCB, refAxisLongest}, {"rib", RIB, refAxisPrincipal}} {
		got, err := tc.f(g)
		if err != nil {
			t.Errorf("%s %s: %v", name, tc.name, err)
			continue
		}
		if want := refBisect(g, tc.ax); !slices.Equal(got, want) {
			t.Errorf("%s %s: permutation differs from the stable-sort reference", name, tc.name)
		}
	}
}

func TestBisectionEqualsReference(t *testing.T) {
	gen := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	meshes := map[string]*graph.Graph{
		"paper":     mesh.Paper(),
		"honeycomb": gen(mesh.Honeycomb(60, 80)), // many tied keys
		"annulus":   gen(mesh.Annulus(24, 96)),
		"geometric": gen(mesh.RandomGeometric(3000, 0.04, 5)),
		"cube3d":    cube3d(t, 12),
	}
	for _, n := range []int{3, 17, 64, 150} {
		for seed := int64(1); seed <= 3; seed++ {
			meshes[fmt.Sprintf("grid%d/seed%d", n, seed)] = gen(mesh.GridTriangulated(n, n, 0.2, seed))
		}
	}
	meshes["grid-unperturbed"] = gen(mesh.GridTriangulated(40, 25, 0, 1))
	for n := 0; n <= 3; n++ {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: float64((i * 2) % 3), Y: float64(i)}
		}
		meshes[fmt.Sprintf("n=%d", n)] = cloud(pts)
	}
	meshes["identical"] = cloud(make([]geom.Point, 9000))
	rng := rand.New(rand.NewSource(11))
	pts := make([]geom.Point, 10000)
	for i := range pts {
		pts[i] = geom.Point{X: rng.NormFloat64(), Y: 3 * rng.Float64(), Z: rng.ExpFloat64()}
	}
	meshes["cloud3d"] = cloud(pts)
	for name, pts := range keyClouds() {
		meshes[name] = cloud(pts)
	}
	for name, g := range meshes {
		checkAgainstReference(t, name, g)
	}
}

// keyClouds are point sets whose sort keys stress the key path: signed
// zeros tied on the split axis, negative, subnormal and huge
// coordinates, flat axes, and the key sequences that once defeated
// pivot selection (sorted, reversed, organ-pipe, constant, sawtooth).
func keyClouds() map[string][]geom.Point {
	const n = 5000
	rng := rand.New(rand.NewSource(13))
	negZero := math.Copysign(0, -1)
	points := func(f func(i int) geom.Point) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = f(i)
		}
		return pts
	}
	clouds := map[string][]geom.Point{
		// Most X keys are ±0, so zeros of both signs meet at the median.
		"signed-zeros": points(func(int) geom.Point {
			x := [...]float64{0, negZero, 0, negZero, 0, negZero, -1, 1}[rng.Intn(8)]
			return geom.Point{X: x, Y: 0.5 * rng.Float64(), Z: [2]float64{0, negZero}[rng.Intn(2)]}
		}),
		"negative": points(func(int) geom.Point {
			return geom.Point{X: -1 - 999*rng.Float64(), Y: -2 - 48*rng.Float64(), Z: -rng.Float64()}
		}),
		"subnormal": points(func(int) geom.Point {
			return geom.Point{X: float64(rng.Intn(64)-32) * 5e-324, Y: float64(rng.Intn(16)) * 5e-324}
		}),
		"huge": points(func(int) geom.Point {
			return geom.Point{X: (2*rng.Float64() - 1) * 1e300, Y: (2*rng.Float64() - 1) * 1e300, Z: 1e300}
		}),
		// Extents overflow to +Inf on both axes, which then tie.
		"overflow": points(func(int) geom.Point {
			return geom.Point{X: (2*rng.Float64() - 1) * 1.7e308, Y: (2*rng.Float64() - 1) * 1.7e308}
		}),
		"flat-x": points(func(int) geom.Point {
			return geom.Point{X: 3, Y: float64(rng.Intn(100)), Z: float64(rng.Intn(4))}
		}),
		"flat-y": points(func(int) geom.Point {
			return geom.Point{X: rng.Float64(), Y: -7, Z: 2 * rng.Float64()}
		}),
		"flat-z": points(func(int) geom.Point {
			return geom.Point{X: rng.Float64(), Y: float64(rng.Intn(50)) / 49, Z: 7}
		}),
	}
	patterns := map[string]func(i int) float64{
		"sorted":    func(i int) float64 { return float64(i) },
		"reversed":  func(i int) float64 { return float64(n - i) },
		"organpipe": func(i int) float64 { return float64(min(i, n-i)) },
		"constant":  func(int) float64 { return 1 },
		"sawtooth":  func(i int) float64 { return float64(i % 7) },
	}
	for name, key := range patterns {
		clouds["keys-"+name] = points(func(i int) geom.Point {
			return geom.Point{X: key(i), Y: float64(i%3) / 2}
		})
	}
	return clouds
}

// RCBStages runs RCB's recursion, stopped early: each stage must hold
// the cells the reference bisection's first levels produce.
func TestRCBStagesEqualReference(t *testing.T) {
	g, err := mesh.GridTriangulated(70, 50, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{g, mesh.Paper(), cloud(keyClouds()["signed-zeros"])} {
		const levels = 5
		want := make([][]int32, levels)
		for k := range want {
			want[k] = make([]int32, g.N)
		}
		var walk func(ids []int32, level int, cell int32)
		walk = func(ids []int32, level int, cell int32) {
			if level == levels {
				return
			}
			if len(ids) < 2 {
				for k, c := level, cell; k < levels; k++ {
					c *= 2
					for _, v := range ids {
						want[k][v] = c
					}
				}
				return
			}
			key := refAxisLongest(ids, g.Coords)
			sort.SliceStable(ids, func(i, j int) bool {
				ki, kj := key(ids[i]), key(ids[j])
				return ki < kj || (ki == kj && ids[i] < ids[j])
			})
			mid := len(ids) / 2
			for i, v := range ids {
				want[level][v] = 2*cell + int32(min(i/mid, 1))
			}
			walk(ids[:mid], level+1, 2*cell)
			walk(ids[mid:], level+1, 2*cell+1)
		}
		ids := make([]int32, g.N)
		for i := range ids {
			ids[i] = int32(i)
		}
		walk(ids, 0, 0)
		got, err := RCBStages(g, levels)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if !slices.Equal(got[k], want[k]) {
				t.Fatalf("%d vertices: stage %d differs from the reference", g.N, k)
			}
		}
	}
}

// A subset large enough to bisect on goroutines must come out the same
// whatever GOMAXPROCS allows.
func TestBisectionIndependentOfGOMAXPROCS(t *testing.T) {
	g, err := mesh.Honeycomb(100, 180)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []int32
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		perm := mustPerm(t, RCB, g)
		if first == nil {
			first = perm
		} else if !slices.Equal(perm, first) {
			t.Fatalf("RCB at GOMAXPROCS=%d differs from GOMAXPROCS=1", procs)
		}
	}
	if !slices.Equal(first, refBisect(g, refAxisLongest)) {
		t.Fatal("RCB differs from the stable-sort reference")
	}
}

func TestNonFiniteCoordinateRejected(t *testing.T) {
	bad := map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1)}
	orderings := map[string]Func{"rcb": RCB, "rib": RIB, "morton": Morton, "hilbert": Hilbert}
	for oname, f := range orderings {
		for bname, v := range bad {
			for axis := 0; axis < 3; axis++ {
				g := testMesh(t)
				g.Coords = slices.Clone(g.Coords)
				g.Coords[37] = g.Coords[37].WithCoord(axis, v)
				_, err := f(g)
				if err == nil || !strings.Contains(err.Error(), "order: non-finite coordinate at vertex 37") {
					t.Errorf("%s with %s on axis %d: err = %v", oname, bname, axis, err)
				}
			}
		}
	}
	if _, err := RCBStages(cloud([]geom.Point{{X: math.NaN()}, {}}), 2); err == nil {
		t.Error("RCBStages accepted a NaN coordinate")
	}
}

// FuzzRCB draws a point cloud with forced duplicate coordinates, zeros
// of both signs among them, and checks that RCB and RIB return a valid
// permutation, equal to the reference, identically at GOMAXPROCS 1
// and 4.
func FuzzRCB(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(1))
	f.Add(int64(2), uint16(1), uint8(3))
	f.Add(int64(3), uint16(257), uint8(2))
	f.Add(int64(4), uint16(9000), uint8(5))
	f.Add(int64(5), uint16(12000), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, distinct uint8) {
		rng := rand.New(rand.NewSource(seed))
		// Coordinates come from a small pool per axis, so keys tie often.
		pool := make([]float64, int(distinct)+1)
		for i := range pool {
			pool[i] = rng.NormFloat64()
		}
		pool = append(pool, 0, math.Copysign(0, -1))
		pts := make([]geom.Point, int(n)%16384)
		for i := range pts {
			pts[i] = geom.Point{X: pool[rng.Intn(len(pool))], Y: pool[rng.Intn(len(pool))]}
			if seed%2 == 0 {
				pts[i].Z = pool[rng.Intn(len(pool))]
			}
		}
		g := cloud(pts)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		for _, tc := range []struct {
			f  Func
			ax refAxis
		}{{RCB, refAxisLongest}, {RIB, refAxisPrincipal}} {
			want := refBisect(g, tc.ax)
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				got, err := tc.f(g)
				if err != nil {
					t.Fatal(err)
				}
				if err := Validate(got, g.N); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("GOMAXPROCS=%d: permutation differs from the reference", procs)
				}
			}
		}
	})
}
