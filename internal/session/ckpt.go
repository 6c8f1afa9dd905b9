package session

import (
	"errors"
	"fmt"
	"time"

	"stance/internal/ckpt"
	"stance/internal/comm"
	"stance/internal/elastic"
)

// Crash-stop fault tolerance (internal/ckpt wired into the session
// driver). With Config.Checkpoint set, every check boundary and every
// Run start is a checkpoint gate: active members heartbeat the
// coordinator, which collects them under a receive deadline and
// multicasts a verdict — all alive (then everyone takes a buddy
// checkpoint), a recovery plan (survivors re-cut, restore the last
// checkpoint and roll back), or an abort (the failure is
// unrecoverable and the run fails loudly). Injected kills make a rank
// go silent at its gate, which is how the sim's seeded kill schedules
// exercise the whole path.

// gateResult is one rank's outcome of a checkpoint gate.
type gateResult int

const (
	// gateAlive: every member answered; continue the run.
	gateAlive gateResult = iota
	// gateRecovered: dead ranks were detected and this rank finished
	// its share of the recovery epoch; the boundary the gate guarded
	// is void (the recovery re-cut, rolled back and re-checkpointed).
	gateRecovered
	// gateDied: this rank's injected kill fired; it must return from
	// the SPMD body immediately and silently.
	gateDied
)

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

// ckptGate runs one rank's side of a checkpoint gate at iteration
// iter; without Config.Checkpoint there is no gate and every rank is
// alive. The caller must have drained the pipeline and recorded the
// solver's timings first (a dying rank's last segment must still be
// accounted).
func (s *Session) ckptGate(c *comm.Comm, rep *RunReport, iter int) (gateResult, error) {
	if !s.ckptOn() {
		return gateAlive, nil
	}
	me := c.Rank()
	ck := s.cks[me]
	for _, k := range s.cfg.Checkpoint.Kills {
		if k.Rank == me && iter >= k.Iter {
			// The injected crash: go silent. The survivors' gate
			// detects the missing heartbeat.
			s.killed[me] = true
			return gateDied, nil
		}
	}
	cur := s.ctls[me].Membership()
	timeout := s.cfg.Checkpoint.DetectTimeout

	if me != 0 {
		if err := ck.SendHB(iter); err != nil {
			return 0, err
		}
		// The coordinator spends up to one timeout per member before
		// its verdict; only a dead coordinator exceeds this deadline.
		deadline := time.Duration(len(cur.Active)+2) * timeout
		data, err := c.RecvTimeout(0, ckpt.TagCtl, deadline)
		if err != nil {
			if errors.Is(err, comm.ErrTimeout) {
				return 0, fmt.Errorf("session: no gate verdict within %v at iteration %d, coordinator presumed dead: %w",
					deadline, iter, ckpt.ErrUnrecoverable)
			}
			return 0, err
		}
		plan, err := ckpt.DecodeVerdict(data)
		c.Release(data)
		if err != nil {
			return 0, fmt.Errorf("session: iteration %d: %w", iter, err)
		}
		if plan == nil {
			return gateAlive, nil
		}
		if err := s.recover(c, rep, plan, 0); err != nil {
			return 0, err
		}
		return gateRecovered, nil
	}

	// Coordinator: collect every member's heartbeat under the
	// deadline. Members that answered after a miss must still be
	// drained, or their heartbeats would poison the next gate.
	t0 := s.clock.Now()
	var dead []int
	for _, r := range cur.Active {
		if r == 0 {
			continue
		}
		hbIter, err := ck.RecvHB(r, timeout)
		if err != nil {
			if errors.Is(err, comm.ErrTimeout) {
				dead = append(dead, r)
				continue
			}
			return 0, err
		}
		if hbIter != iter {
			return 0, fmt.Errorf("session: rank %d heartbeat for iteration %d at the iteration-%d gate", r, hbIter, iter)
		}
	}
	detect := s.clock.Now().Sub(t0)
	if len(dead) == 0 {
		if len(cur.Active) > 1 {
			if err := c.Multicast(cur.Active[1:], ckpt.TagCtl, s.aliveVerdict); err != nil {
				return 0, err
			}
		}
		return gateAlive, nil
	}

	ck.MarkDead(dead)
	survivors := diffRanks(cur.Active, dead)
	ckIter, ckLayout, have := ck.Have()
	recoverable := true
	if have {
		// Every dead rank's snapshot must survive on its buddy.
		for _, d := range dead {
			h := ckpt.Holder(d, cur.Active)
			if h == d || containsRank(dead, h) {
				recoverable = false
				break
			}
		}
	}
	if !recoverable {
		if len(survivors) > 1 {
			if err := c.Multicast(survivors[1:], ckpt.TagCtl, ckpt.EncodeAbort(dead)); err != nil {
				return 0, err
			}
		}
		return 0, fmt.Errorf("session: ranks %v died at iteration %d and their checkpoints died with them: %w",
			dead, iter, ckpt.ErrUnrecoverable)
	}
	rk := s.ranks[me]
	plan := &ckpt.Plan{
		Iter:      iter,
		CkptIter:  -1,
		Dead:      dead,
		OldActive: cur.Active,
		NewActive: survivors,
		Old:       rk.rt.Layout(),
	}
	if have {
		// The take rules guarantee the last checkpoint was taken
		// under the current membership and layout.
		plan.CkptIter = ckIter
		plan.Old = ckLayout
	}
	newLayout, err := rk.rt.CutLayout(s.activeWeights(survivors))
	if err != nil {
		return 0, err
	}
	plan.New = newLayout
	if len(survivors) > 1 {
		if err := c.Multicast(survivors[1:], ckpt.TagCtl, ckpt.EncodePlan(plan)); err != nil {
			return 0, err
		}
	}
	if err := s.recover(c, rep, plan, detect); err != nil {
		return 0, err
	}
	return gateRecovered, nil
}

// recover executes one survivor's share of a recovery epoch: rebind
// the runtime onto the survivors under the re-cut layout, restore the
// last checkpoint (the dead ranks' state replayed by their buddies) or
// reinitialize when none was ever taken, roll the solver back, advance
// the membership epoch, re-arm the balancer and take a fresh
// checkpoint under the new world. The coordinator records the
// RecoveryEvent.
func (s *Session) recover(c *comm.Comm, rep *RunReport, p *ckpt.Plan, detect time.Duration) error {
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
	// The gate's heartbeat round proved every survivor is quiescent at
	// the same iteration with its pipeline drained, so the structural
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
