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
	// Data is valid until the next Bind, Remap, Rebind or SetGraph on
	// the runtime: they re-slice it, and a move swaps it with spare, so
	// a slice of Data kept across one is overwritten by a later one.
	Data []float64
	// spare is the array Data left at the last move (see moveVectorsOn).
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

// Ghost returns the ghost section (valid after Exchange).
func (v *Vector) Ghost() []float64 { return v.Data[v.rt.LocalN():] }

// SetByGlobal initializes the owned section from a function of the
// transformed global index.
func (v *Vector) SetByGlobal(f func(global int64) float64) {
	iv := v.rt.GlobalInterval()
	for u := range v.Local() {
		v.Data[u] = f(iv.Lo + int64(u))
	}
}

// Exchange fills v's ghost section with the owning ranks' current
// values — the executor's gather primitive (paper Section 3.3),
// replaying the compiled plan: owned values are packed per peer
// straight into persistent wire buffers, sends overlap with draining
// whatever has already arrived, and the remaining receives complete in
// arrival order, so one slow peer no longer stalls the unpacking of
// the others.
func (rt *Runtime) Exchange(v *Vector) error {
	rt.vsetScratch = append(rt.vsetScratch[:0], v)
	if err := rt.collect("Exchange", rt.vsetScratch); err != nil {
		return err
	}
	return rt.gather(rt.vecScratch)
}

// ScatterAdd is the executor's scatter primitive: each ghost value is
// sent back to its owner and added into the owned element. Callers
// accumulate partial contributions into the ghost section, then
// scatter them home (the transpose of Exchange).
func (rt *Runtime) ScatterAdd(v *Vector) error {
	rt.vsetScratch = append(rt.vsetScratch[:0], v)
	if err := rt.collect("ScatterAdd", rt.vsetScratch); err != nil {
		return err
	}
	return rt.scatter(rt.vecScratch)
}

// gather replays the Exchange direction of the plan for one or more
// vectors coalesced onto the same wire messages. Callers have already
// checked the vectors against the live handles; the fixed tag and the
// plan-owned pending scratch never collide with handle-based ops.
func (rt *Runtime) gather(vecs [][]float64) error {
	p := rt.plan
	rt.execOps++
	pending := p.Pending()
	nPending := 0
	for _, q := range p.RecvPeers() {
		pending[q] = true
		nPending++
	}
	for _, q := range p.SendPeers() {
		buf := p.PackLocal(q, vecs)
		if err := rt.c.Send(q, tagExchange, buf); err != nil {
			return err
		}
		rt.execMsgs++
		rt.execBytes += int64(len(buf))
		// Overlap: unpack whatever has already arrived before packing
		// the next message.
		var err error
		nPending, err = rt.drainGather(tagExchange, pending, nPending, vecs, false)
		if err != nil {
			return err
		}
	}
	_, err := rt.drainGather(tagExchange, pending, nPending, vecs, true)
	return err
}

// drainGather consumes Exchange payloads on the given tag in arrival
// order, unpacking each straight into the ghost sections (safe out of
// order: ghost slots are disjoint assignments). With block unset it
// only takes messages that are already in the mailbox.
func (rt *Runtime) drainGather(tag int, pending []bool, nPending int, vecs [][]float64, block bool) (int, error) {
	p := rt.plan
	for nPending > 0 {
		src, data, ok, err := rt.next(tag, pending, block)
		if !ok {
			return nPending, err
		}
		err = p.UnpackGhost(src, data, vecs)
		rt.c.Release(data)
		if err != nil {
			return nPending, fmt.Errorf("core: %w", err)
		}
		pending[src] = false
		nPending--
	}
	return nPending, nil
}

// scatter replays the ScatterAdd direction of the plan. Receives
// complete in arrival order (parked per peer), but the accumulation is
// applied in ascending peer order afterwards: several peers may
// contribute to the same owned element, and floating-point addition is
// not associative, so apply order must not depend on network timing.
func (rt *Runtime) scatter(vecs [][]float64) error {
	p := rt.plan
	rt.execOps++
	pending := p.Pending()
	nPending := 0
	for _, q := range p.SendPeers() {
		pending[q] = true
		nPending++
	}
	defer rt.releaseHeld()
	for _, q := range p.RecvPeers() {
		buf := p.PackGhost(q, vecs)
		if err := rt.c.Send(q, tagScatter, buf); err != nil {
			return err
		}
		rt.execMsgs++
		rt.execBytes += int64(len(buf))
		var err error
		nPending, err = rt.drainScatter(tagScatter, pending, nPending, p.Held(), false)
		if err != nil {
			return err
		}
	}
	if _, err := rt.drainScatter(tagScatter, pending, nPending, p.Held(), true); err != nil {
		return err
	}
	return rt.applyHeld(p.Held(), vecs)
}

// applyHeld adds the parked ScatterAdd payloads into the owned elements
// in ascending peer order and hands them back to the transport.
func (rt *Runtime) applyHeld(held [][]byte, vecs [][]float64) error {
	p := rt.plan
	for _, q := range p.SendPeers() {
		data := held[q]
		if data == nil {
			continue
		}
		held[q] = nil
		err := p.AddLocal(q, data, vecs)
		rt.c.Release(data)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// drainScatter completes ScatterAdd receives on the given tag in
// arrival order, parking each payload in held (indexed by source) until
// the deterministic apply pass.
func (rt *Runtime) drainScatter(tag int, pending []bool, nPending int, held [][]byte, block bool) (int, error) {
	for nPending > 0 {
		src, data, ok, err := rt.next(tag, pending, block)
		if !ok {
			return nPending, err
		}
		held[src] = data
		pending[src] = false
		nPending--
	}
	return nPending, nil
}

// next takes one payload on tag from a peer marked pending: waiting for
// one with block set, and otherwise only one that has already arrived.
// ok reports whether it took one.
func (rt *Runtime) next(tag int, pending []bool, block bool) (src int, data []byte, ok bool, err error) {
	if block {
		src, data, err = rt.c.RecvAnyOf(tag, pending)
		return src, data, err == nil, err
	}
	src, data, ok, err = rt.c.PollAnyOf(tag, pending)
	return src, data, ok && err == nil, err
}

// releaseHeld returns any payloads still parked on the plan (after an
// error cut an operation short) to the transport.
func (rt *Runtime) releaseHeld() {
	p := rt.plan
	for _, q := range p.SendPeers() {
		if data := p.TakeHeld(q); data != nil {
			rt.c.Release(data)
		}
	}
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
