package sched

import (
	"fmt"
	"slices"

	"stance/internal/partition"
)

// Schedule is one processor's communication schedule: which of its
// local elements to send to each peer (the paper's "send list") and
// where each element received from a peer lands in the ghost buffer
// (the paper's "permutation list"). The executor replays it every
// iteration.
type Schedule struct {
	Rank   int
	NProcs int
	NLocal int // number of locally owned elements

	// Ghosts maps ghost slot -> global index, sorted ascending.
	// Because owners hold contiguous intervals, sorting by global
	// index groups ghosts by owner and orders each group by the
	// owner's local reference — the agreement Sort1/Sort2 rely on.
	Ghosts []int64

	// SendIdx[q] lists this rank's local indices to send to peer q, in
	// the order they travel on the wire.
	SendIdx [][]int32

	// RecvSlot[q] lists the ghost slots filled by peer q's message, in
	// arrival order.
	RecvSlot [][]int32
}

// NGhosts returns the ghost-buffer length.
func (s *Schedule) NGhosts() int { return len(s.Ghosts) }

// TotalSend returns the number of elements sent per iteration.
func (s *Schedule) TotalSend() int {
	n := 0
	for _, idx := range s.SendIdx {
		n += len(idx)
	}
	return n
}

// TotalRecv returns the number of elements received per iteration.
func (s *Schedule) TotalRecv() int {
	n := 0
	for _, slots := range s.RecvSlot {
		n += len(slots)
	}
	return n
}

// Peers returns the number of distinct peers this rank exchanges with.
func (s *Schedule) Peers() int {
	n := 0
	for q := range s.SendIdx {
		if len(s.SendIdx[q]) > 0 || len(s.RecvSlot[q]) > 0 {
			n++
		}
	}
	return n
}

// Equal reports whether two schedules are identical (used to verify
// that Sort1, Sort2 and Simple agree).
func (s *Schedule) Equal(o *Schedule) bool {
	return s.Rank == o.Rank && s.NProcs == o.NProcs && s.NLocal == o.NLocal &&
		slices.Equal(s.Ghosts, o.Ghosts) &&
		slices.EqualFunc(s.SendIdx, o.SendIdx, slices.Equal[[]int32]) &&
		slices.EqualFunc(s.RecvSlot, o.RecvSlot, slices.Equal[[]int32])
}

// Validate checks the schedule's local invariants against a layout:
// send indices in local range, ghost slots a bijection, ghosts sorted,
// every ghost owned by the peer it is received from.
func (s *Schedule) Validate(layout *partition.Layout) error {
	iv := layout.Interval(s.Rank)
	if int64(s.NLocal) != iv.Len() {
		return fmt.Errorf("sched: NLocal %d != interval length %d", s.NLocal, iv.Len())
	}
	for q, idx := range s.SendIdx {
		if q == s.Rank && len(idx) > 0 {
			return fmt.Errorf("sched: schedule sends to itself")
		}
		for _, i := range idx {
			if i < 0 || int(i) >= s.NLocal {
				return fmt.Errorf("sched: send index %d out of local range [0,%d)", i, s.NLocal)
			}
		}
	}
	for i := 1; i < len(s.Ghosts); i++ {
		if s.Ghosts[i-1] >= s.Ghosts[i] {
			return fmt.Errorf("sched: ghosts not strictly sorted at %d", i)
		}
	}
	seen := make([]bool, len(s.Ghosts))
	for q, slots := range s.RecvSlot {
		if q == s.Rank && len(slots) > 0 {
			return fmt.Errorf("sched: schedule receives from itself")
		}
		for _, slot := range slots {
			if slot < 0 || int(slot) >= len(s.Ghosts) {
				return fmt.Errorf("sched: ghost slot %d out of range [0,%d)", slot, len(s.Ghosts))
			}
			if seen[slot] {
				return fmt.Errorf("sched: ghost slot %d filled twice", slot)
			}
			seen[slot] = true
			owner, err := layout.Owner(s.Ghosts[slot])
			if err != nil {
				return err
			}
			if owner != q {
				return fmt.Errorf("sched: ghost %d received from %d but owned by %d",
					s.Ghosts[slot], q, owner)
			}
		}
	}
	for slot, ok := range seen {
		if !ok {
			return fmt.Errorf("sched: ghost slot %d never filled", slot)
		}
	}
	return nil
}

// GhostSlot returns the ghost slot of a global index via binary
// search, or -1 if the index is not a ghost.
func (s *Schedule) GhostSlot(global int64) int {
	if i, ok := slices.BinarySearch(s.Ghosts, global); ok {
		return i
	}
	return -1
}
