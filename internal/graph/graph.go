// Package graph implements the computational-graph representation at
// the heart of the STANCE runtime (paper Section 3.1). Vertices stand
// for units of data-parallel work, edges for interactions between
// them. Graphs are stored in compressed sparse row (CSR) form and may
// carry physical coordinates, which the locality transformations in
// package order rely on.
package graph

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"stance/internal/geom"
)

// Graph is an undirected graph in CSR form. Vertex v's neighbors are
// Adj[Xadj[v]:Xadj[v+1]]. For a well-formed undirected graph every
// edge appears twice, once in each endpoint's adjacency list.
type Graph struct {
	N      int          // number of vertices
	Xadj   []int32      // row pointers, length N+1
	Adj    []int32      // concatenated adjacency lists, length 2*|E|
	Coords []geom.Point // optional physical coordinates, length N or nil
}

// Edge is an undirected edge between vertices U and V.
type Edge struct {
	U, V int32
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.Adj) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.Xadj[v+1] - g.Xadj[v]) }

// Neighbors returns the adjacency list of vertex v. The returned slice
// aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.Adj[g.Xadj[v]:g.Xadj[v+1]] }

// MaxDegree returns the largest vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// FromEdges builds an undirected CSR graph with n vertices from an
// edge list. Self-loops and duplicate edges are rejected. coords may
// be nil.
func FromEdges(n int, edges []Edge, coords []geom.Point) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if coords != nil && len(coords) != n {
		return nil, fmt.Errorf("graph: %d coords for %d vertices", len(coords), n)
	}
	deg := make([]int32, n)
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", e.U)
		}
		deg[e.U]++
		deg[e.V]++
	}
	g := &Graph{
		N:      n,
		Xadj:   make([]int32, n+1),
		Adj:    make([]int32, 2*len(edges)),
		Coords: coords,
	}
	for v := 0; v < n; v++ {
		g.Xadj[v+1] = g.Xadj[v] + deg[v]
	}
	next := make([]int32, n)
	copy(next, g.Xadj[:n])
	for _, e := range edges {
		g.Adj[next[e.U]] = e.V
		next[e.U]++
		g.Adj[next[e.V]] = e.U
		next[e.V]++
	}
	// Sort each adjacency list so graphs built from permuted edge
	// lists are identical, then detect duplicates.
	for v := 0; v < n; v++ {
		lst := g.Adj[g.Xadj[v]:g.Xadj[v+1]]
		slices.Sort(lst)
		for i := 1; i < len(lst); i++ {
			if lst[i] == lst[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", v, lst[i])
			}
		}
	}
	return g, nil
}

// Edges returns each undirected edge exactly once, with U < V, in
// increasing order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := int32(0); int(v) < g.N; v++ {
		for _, w := range g.Neighbors(int(v)) {
			if v < w {
				out = append(out, Edge{v, w})
			}
		}
	}
	return out
}

// Validate checks CSR structural invariants: monotone Xadj, in-range
// adjacency entries, symmetry, no self loops.
func (g *Graph) Validate() error {
	if len(g.Xadj) != g.N+1 {
		return fmt.Errorf("graph: len(Xadj) = %d, want %d", len(g.Xadj), g.N+1)
	}
	if g.Xadj[0] != 0 || int(g.Xadj[g.N]) != len(g.Adj) {
		return fmt.Errorf("graph: Xadj endpoints [%d,%d] do not match Adj length %d",
			g.Xadj[0], g.Xadj[g.N], len(g.Adj))
	}
	if g.Coords != nil && len(g.Coords) != g.N {
		return fmt.Errorf("graph: %d coords for %d vertices", len(g.Coords), g.N)
	}
	for v := 0; v < g.N; v++ {
		if g.Xadj[v] > g.Xadj[v+1] {
			return fmt.Errorf("graph: Xadj not monotone at vertex %d", v)
		}
		for _, w := range g.Neighbors(v) {
			if w < 0 || int(w) >= g.N {
				return fmt.Errorf("graph: neighbor %d of vertex %d out of range", w, v)
			}
			if int(w) == v {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
		}
	}
	// Symmetry: count directed arcs both ways.
	type arc struct{ u, v int32 }
	seen := make(map[arc]int, len(g.Adj))
	for v := int32(0); int(v) < g.N; v++ {
		for _, w := range g.Neighbors(int(v)) {
			seen[arc{v, w}]++
		}
	}
	for a, c := range seen {
		if c != 1 {
			return fmt.Errorf("graph: arc (%d,%d) appears %d times", a.u, a.v, c)
		}
		if seen[arc{a.v, a.u}] != 1 {
			return fmt.Errorf("graph: edge (%d,%d) is not symmetric", a.u, a.v)
		}
	}
	return nil
}

// Permute renumbers the graph according to perm, where perm[old] = new
// position in the one-dimensional list (the transformation T of paper
// Section 3.1). The result's vertex i is the old vertex with
// perm[old] == i; adjacency lists are sorted.
func (g *Graph) Permute(perm []int32) (*Graph, error) {
	if len(perm) != g.N {
		return nil, fmt.Errorf("graph: permutation length %d for %d vertices", len(perm), g.N)
	}
	inv := make([]int32, g.N)
	for i := range inv {
		inv[i] = -1
	}
	for old, nw := range perm {
		if nw < 0 || int(nw) >= g.N {
			return nil, fmt.Errorf("graph: perm[%d] = %d out of range", old, nw)
		}
		if inv[nw] != -1 {
			return nil, fmt.Errorf("graph: perm maps both %d and %d to %d", inv[nw], old, nw)
		}
		inv[nw] = int32(old)
	}
	ng := &Graph{
		N:    g.N,
		Xadj: make([]int32, g.N+1),
		Adj:  make([]int32, len(g.Adj)),
	}
	if g.Coords != nil {
		ng.Coords = make([]geom.Point, g.N)
	}
	for nw, old := range inv {
		ng.Xadj[nw+1] = ng.Xadj[nw] + int32(g.Degree(int(old)))
	}
	// Rows are independent once Xadj is known: fill contiguous ranges
	// of new vertices, each holding about the same number of entries,
	// on up to GOMAXPROCS goroutines.
	fill := func(from, to int) {
		for nw := from; nw < to; nw++ {
			old := inv[nw]
			if g.Coords != nil {
				ng.Coords[nw] = g.Coords[old]
			}
			dst := ng.Adj[ng.Xadj[nw]:ng.Xadj[nw+1]]
			for i, w := range g.Neighbors(int(old)) {
				dst[i] = perm[w]
			}
			sortRow(dst)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), 1+len(g.Adj)/permuteGrain)
	var wg sync.WaitGroup
	from := 0
	for k := 1; k < workers; k++ {
		to, _ := slices.BinarySearch(ng.Xadj[:g.N], int32(len(g.Adj)*k/workers))
		wg.Add(1)
		go func(from, to int) {
			defer wg.Done()
			fill(from, to)
		}(from, to)
		from = to
	}
	fill(from, g.N)
	wg.Wait()
	return ng, nil
}

// permuteGrain is the fewest adjacency entries Permute gives a
// goroutine of its own.
const permuteGrain = 1 << 15

// insertionMax is the longest row sortRow sorts by insertion; mesh rows
// are shorter.
const insertionMax = 16

// sortRow sorts an adjacency row in place.
func sortRow(r []int32) {
	if len(r) > insertionMax {
		slices.Sort(r)
		return
	}
	for i := 1; i < len(r); i++ {
		x, j := r[i], i
		for ; j > 0 && r[j-1] > x; j-- {
			r[j] = r[j-1]
		}
		r[j] = x
	}
}

// Connected reports whether the graph is connected (true for N <= 1).
func (g *Graph) Connected() bool {
	if g.N <= 1 {
		return true
	}
	visited := make([]bool, g.N)
	stack := []int32{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(int(v)) {
			if !visited[w] {
				visited[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.N
}

// Components returns the number of connected components.
func (g *Graph) Components() int {
	visited := make([]bool, g.N)
	comps := 0
	var stack []int32
	for s := 0; s < g.N; s++ {
		if visited[s] {
			continue
		}
		comps++
		visited[s] = true
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(int(v)) {
				if !visited[w] {
					visited[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return comps
}
