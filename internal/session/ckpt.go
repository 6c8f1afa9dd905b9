package session

import (
	"time"

	"stance/internal/ckpt"
	"stance/internal/comm"
	"stance/internal/ctl"
	"stance/internal/elastic"
)

// Crash-stop fault tolerance (internal/ckpt wired into the session
// driver). With Config.Checkpoint set, every check boundary and every
// Run start runs the boundary round under a receive deadline (see
// round): a member whose report misses it is dead, and the verdict is
// a recovery plan (survivors re-cut, restore the last checkpoint and
// roll back) or an abort (the failure is unrecoverable and the run
// fails loudly); otherwise everyone takes a buddy checkpoint. Injected
// kills make a rank go silent at its boundary, which is how the sim's
// seeded kill schedules exercise the whole path.

// ckptOn reports whether crash-stop fault tolerance is enabled.
func (s *Session) ckptOn() bool { return s.cfg.Checkpoint != nil }

// fieldData returns the solver's per-field backing slices in the
// rank's persistent scratch, so boundary-rate callers allocate
// nothing.
func (s *Session) fieldData(rk *rankState) [][]float64 {
	n := rk.sol.Fields()
	if cap(rk.fieldBufs) < n {
		rk.fieldBufs = make([][]float64, n)
	}
	rk.fieldBufs = rk.fieldBufs[:n]
	for f := range rk.fieldBufs {
		rk.fieldBufs[f] = rk.sol.Field(f).Data
	}
	return rk.fieldBufs
}

// ckptTake checkpoints this rank under the current membership and
// layout. Collective over the active set: every take site is chosen so
// that all members reach it under the same epoch (run starts without a
// transition, boundaries after the balance check, post-commit, and
// post-recovery).
func (s *Session) ckptTake(me, iter int) error {
	rk := s.ranks[me]
	cur := s.ctls[me].Membership()
	return s.cks[me].Take(iter, rk.rt.Layout(), cur.Active, s.fieldData(rk))
}

// recover executes one survivor's share of a recovery epoch: rebind
// the runtime onto the survivors under the re-cut layout, restore the
// last checkpoint (the dead ranks' state replayed by their buddies) or
// reinitialize when none was ever taken, roll the solver back, advance
// the membership epoch, re-arm the balancer and take a fresh
// checkpoint under the new world. The coordinator records the
// RecoveryEvent.
func (s *Session) recover(c *comm.Comm, rep *RunReport, p *ctl.Recovery, detect time.Duration) error {
	me := c.Rank()
	rk := s.ranks[me]
	ck := s.cks[me]
	t0 := s.clock.Now()
	ck.MarkDead(p.Dead)
	epoch := s.ctls[me].Membership().Epoch + 1
	newSub, err := c.Sub(p.NewActive)
	if err != nil {
		return err
	}
	// The boundary round proved every survivor is quiescent at the
	// same iteration with its pipeline drained, so the structural
	// rebind needs no drain barrier; the vectors' contents are garbage
	// until the restore below overwrites them.
	if err := rk.rt.Bind(newSub, p.New); err != nil {
		return err
	}
	s.subs[me] = newSub
	var restored int64
	if p.CkptIter < 0 {
		// Died before the first checkpoint: restart from the initial
		// conditions, which are a pure function of the global index
		// and therefore identical on any layout.
		rk.sol.InitDefault()
		rk.sol.SetIter(0)
	} else {
		if err := ck.Restore(p, s.fieldData(rk)); err != nil {
			return err
		}
		rk.sol.SetIter(p.CkptIter)
		restored = p.New.N() * int64(rk.sol.Fields()) * 8
	}
	s.ctls[me].Force(elastic.Membership{Epoch: epoch, Active: p.NewActive})
	if err := s.armBalancer(rk); err != nil {
		return err
	}
	if err := s.ckptTake(me, rk.sol.Iter()); err != nil {
		return err
	}
	if me == 0 {
		restoredIter := p.CkptIter
		if restoredIter < 0 {
			restoredIter = 0
		}
		rep.Recoveries = append(rep.Recoveries, ckpt.RecoveryEvent{
			Iter:          p.Iter,
			RestoredIter:  restoredIter,
			RollbackDepth: p.Iter - restoredIter,
			Dead:          p.Dead,
			Active:        append([]int(nil), p.NewActive...),
			Epoch:         epoch,
			DetectLatency: detect,
			RestoredBytes: restored,
			Duration:      s.clock.Now().Sub(t0),
		})
	}
	return nil
}

func diffRanks(all, drop []int) []int {
	out := make([]int, 0, len(all))
	for _, r := range all {
		if !containsRank(drop, r) {
			out = append(out, r)
		}
	}
	return out
}

func containsRank(list []int, r int) bool {
	for _, x := range list {
		if x == r {
			return true
		}
	}
	return false
}
