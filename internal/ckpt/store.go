package ckpt

import (
	"fmt"
	"slices"

	"stance/internal/comm"
	"stance/internal/ctl"
	"stance/internal/partition"
	"stance/internal/redist"
)

// Store is one rank's side of the checkpoint protocol. It owns two
// buffers, both encoded snapshots:
//   - encBuf is the rank's own last snapshot, encoded straight from the
//     vectors at the take and sent to the buddy from there (a send
//     copies its payload before it returns), so the next take reuses
//     it. Only Restore decodes it, once per recovery.
//   - held is the ring predecessor's mirrored snapshot (whose buddy this
//     rank is), kept in the buffer the mailbox delivered it in; the next
//     take's mirror replaces it and returns it to the mailbox's pool,
//     where the delivery after that finds it.
//
// A take therefore copies the vectors twice — into encBuf, and into
// the buddy's delivery buffer — and, with a stable layout, allocates
// nothing.
type Store struct {
	c      *comm.Comm
	fields int

	// Own snapshot.
	haveSnap bool
	snapIter int
	layout   *partition.Layout
	active   []int       // active set at the take, persistent copy
	encBuf   []byte      // own snapshot, encoded
	views    [][]float64 // per-field owned sections, the encoder's input

	// Predecessor's mirrored snapshot, encoded, in a mailbox buffer.
	held     []byte
	heldFrom int // world rank it belongs to; -1 when none

	dead []bool // world ranks this rank has seen declared dead
}

// NewStore returns a store for the rank behind c, checkpointing
// fields vector fields.
func NewStore(c *comm.Comm, fields int) *Store {
	return &Store{
		c:        c,
		fields:   fields,
		heldFrom: -1,
		dead:     make([]bool, c.Size()),
	}
}

// Take checkpoints this rank's state at iteration iter: it encodes the
// owned interval of every field of data (the vectors' backing slices,
// ghosts ignored) as the rank's own snapshot, then mirrors it to the
// ring successor in active and receives the predecessor's in exchange.
// Take is collective over active and must be called at a point where
// every member calls it under the same layout and active set.
func (st *Store) Take(iter int, layout *partition.Layout, active []int, data [][]float64) error {
	if len(data) != st.fields {
		return fmt.Errorf("ckpt: %d fields passed to a %d-field store", len(data), st.fields)
	}
	me := st.c.Rank()
	idx := slices.Index(active, me)
	if idx < 0 {
		return fmt.Errorf("ckpt: rank %d is not in the active set %v", me, active)
	}
	iv := layout.Interval(idx)
	n := int(iv.Len())
	st.views = st.views[:0]
	for f, vals := range data {
		if len(vals) < n {
			return fmt.Errorf("ckpt: field %d has %d elements, interval needs %d", f, len(vals), n)
		}
		st.views = append(st.views, vals[:n])
	}
	snap := Snapshot{Iter: iter, Lo: iv.Lo, Hi: iv.Hi, Fields: st.views}
	// The encoder validates before it writes, so a failed take leaves
	// the last snapshot in place.
	enc, err := AppendSnapshot(st.encBuf[:0], &snap)
	clear(st.views) // drop the references to the vectors
	if err != nil {
		return err
	}
	st.encBuf = enc
	st.haveSnap = true
	st.snapIter = iter
	st.layout = layout
	st.active = append(st.active[:0], active...)

	if len(active) == 1 {
		st.dropHeld()
		return nil
	}
	succ := active[(idx+1)%len(active)]
	pred := active[(idx-1+len(active))%len(active)]
	if err := st.c.Send(succ, TagSnap, st.encBuf); err != nil {
		return fmt.Errorf("ckpt: mirror to buddy %d: %w", succ, err)
	}
	got, err := st.c.Recv(pred, TagSnap)
	if err != nil {
		return fmt.Errorf("ckpt: mirror from %d: %w", pred, err)
	}
	st.dropHeld()
	st.held, st.heldFrom = got, pred
	return nil
}

// dropHeld returns the held mirror's buffer to the mailbox pool.
func (st *Store) dropHeld() {
	if st.held != nil {
		st.c.Release(st.held)
	}
	st.held, st.heldFrom = nil, -1
}

// Have reports the last checkpoint, if any.
func (st *Store) Have() (iter int, layout *partition.Layout, ok bool) {
	if !st.haveSnap {
		return 0, nil, false
	}
	return st.snapIter, st.layout, true
}

// MarkDead records ranks as permanently dead; a dead rank is filtered
// out of every future desired active set, so the environment can never
// re-admit it.
func (st *Store) MarkDead(ranks []int) {
	for _, r := range ranks {
		if r >= 0 && r < len(st.dead) {
			st.dead[r] = true
		}
	}
}

// Dead lists the ranks marked dead, ascending.
func (st *Store) Dead() []int {
	var out []int
	for r, d := range st.dead {
		if d {
			out = append(out, r)
		}
	}
	return out
}

// FilterDead returns want with every dead rank removed. It returns
// want itself when nothing is filtered.
func (st *Store) FilterDead(want []int) []int {
	filtered := want
	for i, r := range want {
		if r >= 0 && r < len(st.dead) && st.dead[r] {
			if len(filtered) == len(want) {
				filtered = append([]int(nil), want[:i]...)
			}
			continue
		}
		if len(filtered) != len(want) {
			filtered = append(filtered, r)
		}
	}
	return filtered
}

// Restore executes this rank's share of a recovery plan: it fills the
// vectors' backing slices (data, one per field, already re-bound to
// the plan's New layout) with checkpoint state — the kept region from
// its own snapshot, transfers from surviving peers, and the dead
// ranks' regions replayed from whichever buddy holds their snapshot.
// It must be called by every survivor of the plan.
func (st *Store) Restore(p *ctl.Recovery, data [][]float64) error {
	me := st.c.Rank()
	if len(data) != st.fields {
		return fmt.Errorf("ckpt: %d fields passed to a %d-field store", len(data), st.fields)
	}
	if !st.haveSnap || st.snapIter != p.CkptIter {
		return fmt.Errorf("ckpt: rank %d has checkpoint iteration %d, plan restores %d", me, st.snapIter, p.CkptIter)
	}
	own, err := DecodeSnapshot(st.encBuf)
	if err != nil {
		return fmt.Errorf("ckpt: own snapshot: %w", err)
	}
	oldIdx := slices.Index(p.OldActive, me)
	newIdx := slices.Index(p.NewActive, me)
	if oldIdx < 0 || newIdx < 0 {
		return fmt.Errorf("ckpt: rank %d is not a survivor of the plan", me)
	}
	dead := make(map[int]bool, len(p.Dead))
	for _, d := range p.Dead {
		dead[d] = true
	}
	my, err := redist.NewCrossPlan(p.Old, p.New, p.OldActive, p.NewActive, me)
	if err != nil {
		return err
	}
	newIv := my.New
	for f, vals := range data {
		if int64(len(vals)) < newIv.Len() {
			return fmt.Errorf("ckpt: field %d has %d elements, new interval needs %d", f, len(vals), newIv.Len())
		}
	}

	// Sends first — all transfers are asynchronous, so issuing every
	// outbound message (own segments and the held dead snapshots'
	// segments) before blocking in receives cannot deadlock.
	for _, tr := range my.Sends {
		buf := packTransfer(own.Fields, my.Old, tr.Global, st.fields)
		if err := st.c.Send(tr.Peer, TagRestoreBase+oldIdx, buf); err != nil {
			return err
		}
	}
	if st.heldFrom >= 0 && dead[st.heldFrom] {
		held, err := DecodeSnapshot(st.held)
		if err != nil {
			return fmt.Errorf("ckpt: held snapshot for rank %d: %w", st.heldFrom, err)
		}
		if held.Iter != p.CkptIter {
			return fmt.Errorf("ckpt: held snapshot for rank %d is at iteration %d, plan restores %d",
				st.heldFrom, held.Iter, p.CkptIter)
		}
		dp, err := redist.NewCrossPlan(p.Old, p.New, p.OldActive, p.NewActive, st.heldFrom)
		if err != nil {
			return err
		}
		dIdx := slices.Index(p.OldActive, st.heldFrom)
		heldOld := partition.Interval{Lo: held.Lo, Hi: held.Hi}
		for _, tr := range dp.Sends {
			if tr.Peer == me {
				copyTransfer(data, newIv, held.Fields, heldOld, tr.Global)
				continue
			}
			buf := packTransfer(held.Fields, dp.Old, tr.Global, st.fields)
			if err := st.c.Send(tr.Peer, TagRestoreBase+dIdx, buf); err != nil {
				return err
			}
		}
	}

	for f := range data {
		if err := my.ApplyLocal(own.Fields[f][:my.Old.Len()], data[f][:newIv.Len()]); err != nil {
			return err
		}
	}

	for _, tr := range my.Recvs {
		src := tr.Peer
		srcIdx := slices.Index(p.OldActive, tr.Peer)
		if dead[tr.Peer] {
			src = Holder(tr.Peer, p.OldActive)
			if dead[src] || src == tr.Peer {
				return fmt.Errorf("ckpt: no surviving holder for dead rank %d: %w", tr.Peer, ErrUnrecoverable)
			}
			if src == me {
				continue // replayed locally from the held snapshot above
			}
		}
		payload, err := st.c.Recv(src, TagRestoreBase+srcIdx)
		if err != nil {
			return err
		}
		err = unpackTransfer(data, newIv, tr.Global, payload)
		st.c.Release(payload)
		if err != nil {
			return err
		}
	}
	return nil
}

// packTransfer encodes the global range g of every field (fields hold
// the interval old) into one field-major payload.
func packTransfer(fields [][]float64, old, g partition.Interval, nf int) []byte {
	n := int(g.Len())
	buf := make([]byte, nf*n*8)
	off := int(g.Lo - old.Lo)
	for f := 0; f < nf; f++ {
		comm.PutF64s(buf[f*n*8:(f+1)*n*8], fields[f][off:off+n])
	}
	return buf
}

// copyTransfer is packTransfer+unpackTransfer without the wire: the
// global range g moves from src (holding interval srcIv) straight into
// dst (holding interval dstIv).
func copyTransfer(dst [][]float64, dstIv partition.Interval, src [][]float64, srcIv, g partition.Interval) {
	n := int(g.Len())
	srcOff := int(g.Lo - srcIv.Lo)
	dstOff := int(g.Lo - dstIv.Lo)
	for f := range dst {
		copy(dst[f][dstOff:dstOff+n], src[f][srcOff:srcOff+n])
	}
}

// unpackTransfer decodes a field-major transfer payload covering the
// global range g into the vectors' backing slices.
func unpackTransfer(data [][]float64, newIv partition.Interval, g partition.Interval, payload []byte) error {
	n := int(g.Len())
	if len(payload) != len(data)*n*8 {
		return fmt.Errorf("ckpt: %d-byte restore payload for %d fields of %d elements", len(payload), len(data), n)
	}
	off := int(g.Lo - newIv.Lo)
	for f := range data {
		if err := comm.GetF64s(data[f][off:off+n], payload[f*n*8:(f+1)*n*8]); err != nil {
			return err
		}
	}
	return nil
}
