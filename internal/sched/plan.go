package sched

import (
	"fmt"
	"math"
	"slices"

	"stance/internal/comm"
)

// Plan is a Schedule compiled for replay. The executor re-runs the
// inspector's schedule every iteration (Phase C), so its constant
// factors dominate end-to-end runtime; Compile flattens the schedule
// into per-peer pack/unpack index tables plus persistent wire buffers,
// so a steady-state Exchange or ScatterAdd allocates nothing: values
// are packed straight from the vector into the wire buffer and
// unpacked straight into the ghost section, with no intermediate
// []float64 and no per-call buffer churn.
//
// A Plan holds compiled tables and wire buffers only. It keeps no
// per-operation state: the arrival mask and the payloads parked for
// the ordered ScatterAdd apply belong to the executor's op handle, so
// any number of operations may replay one plan at a time.
//
// A Plan is bound to the Schedule it was compiled from. Whenever the
// layout changes (Bind, Remap, Rebind) the runtime's one-pass inspector
// hands the rebuilt schedule to Recompile, which takes the previous
// plan's storage — row lists, chunk tables, per-peer tables, wire
// buffers — for the new one, and then to ClassifyRows with the rank's
// rows of the transformed CSR and the boundary rows the pass recorded,
// so a steady-state rebuild allocates only the plan's header.
// The previous plan is left empty: a *Plan, and every slice read from
// it, is valid until the runtime's next rebuild.
type Plan struct {
	rank   int
	nprocs int
	nlocal int

	// sendPeers/recvPeers list the ranks with non-empty send lists and
	// ghost segments respectively, ascending.
	sendPeers []int
	recvPeers []int

	// local[q] lists the owned-element indices exchanged with peer q —
	// the pack source for Exchange, the accumulate target for
	// ScatterAdd. It aliases the schedule's send lists.
	local [][]int32
	// ghost[q] lists the absolute vector indices (NLocal + slot) of the
	// ghosts received from peer q — the unpack target for Exchange, the
	// pack source for ScatterAdd. Resolving NLocal+slot at compile time
	// removes the per-element offset add from the replay loop. The
	// tables are cut from ghostBuf, one array for all peers.
	ghost    [][]int32
	ghostBuf []int32

	// wire[q] is the persistent send-side wire buffer for messages to
	// peer q, sized at compile time for single-vector operations and
	// grown (then retained) by coalesced multi-vector ones. The receive
	// side needs no counterpart: payloads are unpacked straight from
	// the transport's pooled buffers and Released.
	wire [][]byte

	// interior/boundary split the local index set [0, NLocal) for the
	// executor: interior elements reference no ghost value, so a kernel
	// can compute them while Exchange messages are still in flight;
	// boundary elements read at least one ghost and must wait for the
	// exchange handle's Wait. Together they partition the local index
	// set exactly; each is in plan order (see Classify). Populated by
	// Classify or ClassifyRows (core calls the latter on every rebuild,
	// so the split survives remaps and rebinds on the recompiled plan).
	interior, boundary []int32
	classified         bool

	// xadj holds the row offsets the lists were classified against, for
	// the rows' degrees, and interiorChunks/boundaryChunks the lists'
	// chunk tables (see Rows): the rank's one localized copy of its
	// adjacency.
	xadj                           []int32
	interiorChunks, boundaryChunks chunks
}

// chunks is one row list's chunk table: Rows.ChunkOff, Rows.ChunkAdj and
// Rows.Interleaved.
type chunks struct {
	off, adj    []int32
	interleaved []bool
}

// Compile builds the replay plan for a schedule.
func Compile(s *Schedule) *Plan { return Recompile(nil, s) }

// Recompile builds the replay plan for a schedule in the storage of
// old, a plan no operation is using any more (nil means fresh storage).
// Every table is kept at its high-water capacity, so recompiling for a
// schedule no larger than one seen before allocates only the returned
// header. old is left empty, and slices read from it are overwritten.
func Recompile(old *Plan, s *Schedule) *Plan {
	p := &Plan{}
	if old != nil {
		*p, *old = *old, Plan{}
	}
	p.rank, p.nprocs, p.nlocal = s.Rank, s.NProcs, s.NLocal
	p.sendPeers, p.recvPeers = p.sendPeers[:0], p.recvPeers[:0]
	p.local = slices.Grow(p.local[:0], s.NProcs)[:s.NProcs]
	p.ghost = slices.Grow(p.ghost[:0], s.NProcs)[:s.NProcs]
	p.wire = slices.Grow(p.wire[:0], s.NProcs)[:s.NProcs]
	p.ghostBuf = slices.Grow(p.ghostBuf[:0], s.NGhosts())
	p.interior, p.boundary, p.classified = p.interior[:0], p.boundary[:0], false
	p.xadj = nil
	p.interiorChunks.reset()
	p.boundaryChunks.reset()
	for q := 0; q < s.NProcs; q++ {
		p.local[q], p.ghost[q] = nil, nil
		if idx := s.SendIdx[q]; len(idx) > 0 {
			p.local[q] = idx
			p.sendPeers = append(p.sendPeers, q)
		}
		if slots := s.RecvSlot[q]; len(slots) > 0 {
			from := len(p.ghostBuf)
			for _, slot := range slots {
				p.ghostBuf = append(p.ghostBuf, int32(s.NLocal)+slot)
			}
			p.ghost[q] = p.ghostBuf[from:len(p.ghostBuf):len(p.ghostBuf)]
			p.recvPeers = append(p.recvPeers, q)
		}
		// Size the wire buffer once for single-vector replay; the max
		// covers both directions (Exchange packs local, ScatterAdd
		// packs ghost).
		p.wireFor(q, 8*max(len(p.local[q]), len(p.ghost[q])))
	}
	return p
}

// rowWindow is how many consecutive entries of an ascending row list
// Classify groups by degree at a time. Chosen by measurement: on a
// 45 000-row rank of the triangulated benchmark grid 256 sweeps as fast
// as grouping the whole list, while keeping each group's rows within
// 256 list positions of where ascending order had them — so any prefix
// of a list carries its share of the adjacency entries to within one
// window, which the solver's fractional work-factor pass relies on.
const rowWindow = 256

// ChunkRows is how many consecutive rows of a plan list make one chunk
// of its chunk table (see Rows). Chosen by measurement, like rowWindow:
// on a 45 000-row rank of the benchmark grid eight interleaved rows
// sweep faster than four or sixteen (DESIGN.md "Chunked rows"). It
// divides rowWindow, so a chunk never straddles a window.
const ChunkRows = 8

// Rows is what a kernel sweeps: a list of rows and the list's chunk
// table, which holds every reference of every listed row exactly once,
// localized — references < NLocal index the vector's local section,
// the others its ghost section. It is the SELL-C-σ layout with
// C = ChunkRows, σ being the plan's degree grouping, and it is the only
// copy of the adjacency a rank keeps.
type Rows struct {
	// Idx lists the rows to sweep, in plan order.
	Idx []int32
	// Xadj gives the rows' degrees: row u has Xadj[u+1]−Xadj[u]
	// references.
	Xadj []int32
	// Chunk c is rows Idx[8c:8c+8] — the list's last chunk may hold fewer
	// — and its references are ChunkAdj[ChunkOff[c]:ChunkOff[c+1]]. When
	// Interleaved[c], the chunk's eight rows share one degree d > 0 and
	// their 8d references are interleaved: the k-th reference of each of
	// the eight rows, in list order, for k = 0, then 1, … up to d−1.
	// Otherwise the chunk stores its rows' references one row after
	// another. Either way a row's references come in the order its sum
	// must add them. The tables cover the whole list Idx is a prefix of,
	// so a prefix keeps them and reads the chunks its rows fall in.
	ChunkOff, ChunkAdj []int32
	Interleaved        []bool
}

// Classify splits the local index set into interior and boundary
// elements from the localized CSR (references >= NLocal index the
// ghost section): a local element is boundary iff any of its
// references is a ghost. The classification is what the executor
// computes against — interior work overlaps in-flight Exchange
// messages, boundary work runs after the handle's Wait.
//
// Both lists come out in plan order: cut the ascending list into
// windows of rowWindow entries; inside each window the rows are
// grouped by degree, non-decreasing, and ascending within a degree. A
// kernel handed consecutive rows of equal degree can run them in
// lockstep, and its loop's exit branch repeats instead of following
// the mesh's scattered degrees. Each list's chunk table is copied from
// the CSR too (see Rows); the plan keeps xadj for the rows' degrees, so
// it must not change while the plan is in use.
func (p *Plan) Classify(xadj, adj []int32) error {
	if err := p.checkCSR(xadj, adj); err != nil {
		return err
	}
	p.boundary = p.boundary[:0]
	for u := 0; u < p.nlocal; u++ {
		for k := xadj[u]; k < xadj[u+1]; k++ {
			if int(adj[k]) >= p.nlocal {
				p.boundary = append(p.boundary, int32(u))
				break
			}
		}
	}
	return p.ClassifyRows(xadj, adj, 0, nil, p.boundary)
}

// ClassifyRows is Classify for a caller that found the boundary rows
// while it scanned the references — strictly ascending, each in
// [0, NLocal), exactly the rows with a reference off the interval — and
// reads a global CSR in place: row u's references are
// adj[xadj[u]:xadj[u+1]], a reference g in [lo, lo+NLocal) is local
// element g−lo, and any other is NLocal plus g's slot in ghosts, the
// schedule's sorted ghost list. With lo = 0 and nil ghosts the CSR is
// the localized one Classify reads. The interior is the boundary's
// complement, so no reference is read to find it; the chunk tables read
// each reference once. boundary is copied.
func (p *Plan) ClassifyRows(xadj, adj []int32, lo int64, ghosts []int64, boundary []int32) error {
	if err := p.checkCSR(xadj, adj); err != nil {
		return err
	}
	p.boundary = append(p.boundary[:0], boundary...)
	p.interior = slices.Grow(p.interior[:0], max(0, p.nlocal-len(boundary)))
	u := int32(0)
	for _, b := range boundary {
		if b < u || int(b) >= p.nlocal {
			return fmt.Errorf("sched: boundary row %d out of order or outside [0,%d)", b, p.nlocal)
		}
		for ; u < b; u++ {
			p.interior = append(p.interior, u)
		}
		u = b + 1
	}
	for ; int(u) < p.nlocal; u++ {
		p.interior = append(p.interior, u)
	}
	groupByDegree(p.interior, xadj)
	groupByDegree(p.boundary, xadj)
	p.xadj = xadj
	p.interiorChunks.build(p.interior, xadj, adj, int32(lo))
	p.boundaryChunks.build(p.boundary, xadj, adj, int32(lo))
	// Only boundary rows reach off the interval, and they are few: their
	// table takes the ghost slots in a second pass.
	for i, ref := range p.boundaryChunks.adj {
		if uint32(ref) < uint32(p.nlocal) || ghosts == nil {
			continue
		}
		g := int64(ref + int32(lo))
		slot, ok := slices.BinarySearch(ghosts, g)
		if !ok {
			return fmt.Errorf("sched: reference %d missing from ghost list", g)
		}
		p.boundaryChunks.adj[i] = int32(p.nlocal + slot)
	}
	p.classified = true
	return nil
}

// checkCSR rejects a CSR of the wrong row count or with fewer references
// than its row offsets span.
func (p *Plan) checkCSR(xadj, adj []int32) error {
	if len(xadj) != p.nlocal+1 || int(xadj[p.nlocal]) > len(adj) {
		return fmt.Errorf("sched: classify with a %d-row CSR of %d references for %d local elements", len(xadj)-1, len(adj), p.nlocal)
	}
	return nil
}

// reset empties the table, keeping its storage.
func (c *chunks) reset() {
	c.off, c.adj, c.interleaved = c.off[:0], c.adj[:0], c.interleaved[:0]
}

// build lays out the chunk table of a row list in place: one pass over
// the degrees sizes and marks every chunk, a second copies each chunk's
// references in, less lo, interleaved or one row after another. Every
// table keeps its high-water storage and is reallocated at exactly the
// size needed when it falls short.
func (c *chunks) build(rows, xadj, adj []int32, lo int32) {
	n := (len(rows) + ChunkRows - 1) / ChunkRows
	chunk := func(i int) []int32 { return rows[i*ChunkRows : min((i+1)*ChunkRows, len(rows))] }
	c.off = fit(c.off, n+1)
	c.interleaved = fit(c.interleaved, n)
	size := int32(0)
	for i := range n {
		c.off[i] = size
		rs := chunk(i)
		d := xadj[rs[0]+1] - xadj[rs[0]]
		lanes := len(rs) == ChunkRows && d > 0
		for _, u := range rs {
			lanes = lanes && xadj[u+1]-xadj[u] == d
			size += xadj[u+1] - xadj[u]
		}
		c.interleaved[i] = lanes
	}
	c.off[n] = size
	c.adj = fit(c.adj, int(size))
	for i := range n {
		dst := c.adj[c.off[i]:c.off[i+1]]
		if !c.interleaved[i] {
			for _, u := range chunk(i) {
				for k, g := range adj[xadj[u]:xadj[u+1]] {
					dst[k] = g - lo
				}
				dst = dst[xadj[u+1]-xadj[u]:]
			}
			continue
		}
		for j, u := range chunk(i) {
			for k, g := range adj[xadj[u]:xadj[u+1]] {
				dst[k*ChunkRows+j] = g - lo
			}
		}
	}
}

// fit returns s resliced to length n, reallocated at exactly n when its
// capacity falls short.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// groupByDegree puts an ascending row list into plan order, in place.
// Each window is regrouped on the stack one degree at a time, smallest
// first: a pass over the window keeps the rows of the current degree —
// in the window's ascending order — and finds the next larger one (the
// first pass only finds the smallest). A mesh has a handful of distinct
// degrees, so a window costs a handful of passes. A pass stores every
// row and advances only past the ones it keeps, so it has no branch
// that follows the mesh's scattered degrees; the spare slot takes the
// store that comes after the last row kept.
func groupByDegree(rows, xadj []int32) {
	var grouped [rowWindow + 1]int32
	for len(rows) > 0 {
		w := rows[:min(rowWindow, len(rows))]
		kept := 0
		for deg := int32(math.MinInt32); kept < len(w); {
			next := int32(math.MaxInt32)
			for _, u := range w {
				d := xadj[u+1] - xadj[u]
				grouped[kept] = u
				if d == deg {
					kept++
				}
				if d > deg {
					next = min(next, d)
				}
			}
			deg = next
		}
		copy(w, grouped[:kept])
		rows = rows[len(w):]
	}
}

// Classified reports whether Classify has populated the
// interior/boundary split.
func (p *Plan) Classified() bool { return p.classified }

// InteriorRows returns the local indices that reference no ghost value,
// in plan order (see Classify), with their degrees and chunk table: what
// a kernel sweeps for the interior strip. Not to be modified; Idx is
// empty until Classify runs.
func (p *Plan) InteriorRows() Rows { return p.rows(p.interior, p.interiorChunks) }

// BoundaryRows is InteriorRows for the local indices that reference at
// least one ghost value.
func (p *Plan) BoundaryRows() Rows { return p.rows(p.boundary, p.boundaryChunks) }

func (p *Plan) rows(idx []int32, c chunks) Rows {
	return Rows{Idx: idx, Xadj: p.xadj, ChunkOff: c.off, ChunkAdj: c.adj, Interleaved: c.interleaved}
}

// Rank returns the rank the plan was compiled for.
func (p *Plan) Rank() int { return p.rank }

// NProcs returns the world size.
func (p *Plan) NProcs() int { return p.nprocs }

// NLocal returns the number of locally owned elements.
func (p *Plan) NLocal() int { return p.nlocal }

// SendPeers returns the ranks this plan sends owned values to (and
// receives scatter contributions from), ascending. Not to be modified.
func (p *Plan) SendPeers() []int { return p.sendPeers }

// RecvPeers returns the ranks this plan receives ghost values from
// (and sends scatter contributions to), ascending. Not to be modified.
func (p *Plan) RecvPeers() []int { return p.recvPeers }

// LocalIdx returns peer q's owned-element index table.
func (p *Plan) LocalIdx(q int) []int32 { return p.local[q] }

// GhostIdx returns peer q's absolute ghost index table.
func (p *Plan) GhostIdx(q int) []int32 { return p.ghost[q] }

// wireFor returns peer q's send wire buffer resized to n bytes,
// growing (and retaining) it only when a coalesced operation needs
// more than the compiled single-vector size.
func (p *Plan) wireFor(q, n int) []byte {
	buf := p.wire[q]
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	p.wire[q] = buf
	return buf
}

// PackLocal packs the owned values bound for peer q — every vector's
// segment back to back, vector-major — into the persistent wire buffer
// and returns it (valid until the next pack for q). The Exchange send
// side.
func (p *Plan) PackLocal(q int, vecs [][]float64) []byte {
	return p.pack(q, p.local[q], vecs)
}

// PackGhost packs the ghost-section values bound for peer q (the
// ScatterAdd send side).
func (p *Plan) PackGhost(q int, vecs [][]float64) []byte {
	return p.pack(q, p.ghost[q], vecs)
}

func (p *Plan) pack(q int, idx []int32, vecs [][]float64) []byte {
	seg := 8 * len(idx)
	buf := p.wireFor(q, seg*len(vecs))
	off := 0
	for _, v := range vecs {
		comm.PackF64s(buf[off:off+seg], v, idx)
		off += seg
	}
	return buf
}

// UnpackGhost scatters peer q's Exchange payload into the vectors'
// ghost sections. Safe to apply in arrival order: ghost slots are
// disjoint assignments.
func (p *Plan) UnpackGhost(q int, data []byte, vecs [][]float64) error {
	return p.unpack(q, p.ghost[q], data, vecs, false)
}

// AddLocal accumulates peer q's ScatterAdd payload into the vectors'
// owned elements. Callers must apply peers in a deterministic order:
// several peers may contribute to the same element, and floating-point
// addition is not associative.
func (p *Plan) AddLocal(q int, data []byte, vecs [][]float64) error {
	return p.unpack(q, p.local[q], data, vecs, true)
}

func (p *Plan) unpack(q int, idx []int32, data []byte, vecs [][]float64, add bool) error {
	seg := 8 * len(idx)
	if len(data) != seg*len(vecs) {
		return fmt.Errorf("sched: peer %d sent %d values, plan expects %d",
			q, len(data)/8, len(idx)*len(vecs))
	}
	off := 0
	for _, v := range vecs {
		var err error
		if add {
			err = comm.AddF64s(v, idx, data[off:off+seg])
		} else {
			err = comm.UnpackF64s(v, idx, data[off:off+seg])
		}
		if err != nil {
			return err
		}
		off += seg
	}
	return nil
}
