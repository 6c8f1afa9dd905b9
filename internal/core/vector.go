package core

import (
	"fmt"
	"slices"

	"stance/internal/comm"
)

// Vector is a distributed array aligned with the runtime's layout:
// Data[0:LocalN()] are the locally owned elements (local index order),
// Data[LocalN():] is the ghost section filled by Exchange. Vectors are
// registered with their runtime and follow it through Remap.
type Vector struct {
	rt *Runtime
	// Data is valid until the next Bind, Remap or Rebind on
	// the runtime: they re-slice it, and a move swaps it with spare, so
	// a slice of Data kept across one is overwritten by a later one.
	Data []float64
	// spare is the array Data left at the last move (see moveVectors).
	spare []float64
}

// NewVector allocates and registers a zero vector. All ranks must
// create their vectors in the same order (vector creation pairs them
// across ranks during redistribution). On a parked runtime the vector
// is empty until the rank is admitted.
func (rt *Runtime) NewVector() *Vector {
	v := &Vector{
		rt:   rt,
		Data: make([]float64, rt.LocalN()+rt.nGhosts()),
	}
	rt.vecs = append(rt.vecs, v)
	return v
}

// fitVectors sizes every vector for the current schedule — the owned
// section, then the ghost section — in the array it has when that is
// large enough. Owned values the vector already holds stay; everything
// after them reads zero until an Exchange or the caller fills it.
func (rt *Runtime) fitVectors() {
	nLocal, n := rt.LocalN(), rt.LocalN()+rt.nGhosts()
	for _, v := range rt.vecs {
		keep := min(len(v.Data), nLocal)
		v.Data = slices.Grow(v.Data[:keep], n-keep)[:n]
		clear(v.Data[keep:])
	}
}

// Local returns the owned section.
func (v *Vector) Local() []float64 { return v.Data[:v.rt.LocalN()] }

// SetByGlobal initializes the owned section from a function of the
// transformed global index.
func (v *Vector) SetByGlobal(f func(global int64) float64) {
	iv := v.rt.globalInterval()
	for u := range v.Local() {
		v.Data[u] = f(iv.Lo + int64(u))
	}
}

// Exchange fills v's ghost section with the owning ranks' current
// values — the executor's gather primitive (paper Section 3.3),
// replaying the compiled plan: owned values are packed per peer
// straight into persistent wire buffers, sends overlap with draining
// whatever has already arrived, and the remaining receives complete in
// arrival order, so one slow peer does not stall the unpacking of the
// others. It is ExchangeStart and Wait in one call (see splitphase.go).
func (rt *Runtime) Exchange(v *Vector) error {
	rt.vsetScratch = append(rt.vsetScratch[:0], v)
	return rt.run(opExchange, rt.vsetScratch)
}

// ScatterAdd is the executor's scatter primitive: each ghost value is
// sent back to its owner and added into the owned element. Callers
// accumulate partial contributions into the ghost section, then
// scatter them home (the transpose of Exchange). Receives complete in
// arrival order, but the contributions are added in ascending peer
// order, so the result does not depend on network timing.
func (rt *Runtime) ScatterAdd(v *Vector) error {
	rt.vsetScratch = append(rt.vsetScratch[:0], v)
	return rt.run(opScatter, rt.vsetScratch)
}

// ExchangeAll gathers the ghost sections of several vectors in one
// round, coalescing all vectors' values for a peer into a single
// message — the "message coalescing" optimization of paper Section 2.
// On a latency-dominated network this divides the per-iteration setup
// cost by the number of vectors (see BenchmarkCoalescing). Each
// message carries the vectors' segments back to back, vector-major.
func (rt *Runtime) ExchangeAll(vecs ...*Vector) error {
	if len(vecs) == 0 {
		return nil
	}
	return rt.run(opExchange, vecs)
}

// ScatterAddAll is the coalesced transpose of ExchangeAll: every
// vector's ghost contributions travel home in one message per peer and
// are added into the owned elements, in the same deterministic peer
// order as repeated ScatterAdd calls.
func (rt *Runtime) ScatterAddAll(vecs ...*Vector) error {
	if len(vecs) == 0 {
		return nil
	}
	return rt.run(opScatter, vecs)
}

// GatherGlobal assembles the full vector (transformed-global order) on
// root; other ranks return nil. Collective.
func (rt *Runtime) GatherGlobal(root int, v *Vector) ([]float64, error) {
	if v.rt != rt {
		return nil, fmt.Errorf("core: vector belongs to a different runtime")
	}
	if rt.Parked() {
		return nil, fmt.Errorf("core: GatherGlobal on a parked runtime")
	}
	parts, err := rt.c.Gather(root, tagGatherV, comm.F64sToBytes(v.Local()))
	if err != nil {
		return nil, err
	}
	if rt.c.Rank() != root {
		return nil, nil
	}
	out := make([]float64, rt.n)
	for q := 0; q < rt.c.Size(); q++ {
		vals, err := comm.BytesToF64s(parts[q])
		if err != nil {
			return nil, err
		}
		iv := rt.layout.Interval(q)
		if int64(len(vals)) != iv.Len() {
			return nil, fmt.Errorf("core: rank %d sent %d values for interval of %d", q, len(vals), iv.Len())
		}
		copy(out[iv.Lo:iv.Hi], vals)
	}
	return out, nil
}

// Unpermute maps a transformed-global vector back to original vertex
// numbering: out[original] = vals[perm[original]].
func (rt *Runtime) Unpermute(vals []float64) ([]float64, error) {
	if int64(len(vals)) != rt.n {
		return nil, fmt.Errorf("core: vector length %d, want %d", len(vals), rt.n)
	}
	out := make([]float64, rt.n)
	for orig, nw := range rt.perm {
		out[orig] = vals[nw]
	}
	return out, nil
}
