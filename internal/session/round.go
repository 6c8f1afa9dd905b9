package session

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"stance/internal/ckpt"
	"stance/internal/comm"
	"stance/internal/ctl"
	"stance/internal/elastic"
	"stance/internal/partition"
	"stance/internal/solver"
)

// round is an active rank's share of one boundary at iteration iter, on
// the window tm: the paper's controller round (Section 3.5), then the
// checkpoint take. Every member sends rank 0 one ctl.Report when
// checkpoints or a balancer are on, and rank 0 answers with one
// ctl.Verdict when checkpoints, elastic membership or a balancer are
// on, choosing in the order it ranks the outcomes: abort or recovery if
// a member missed its deadline, else an epoch proposal if the desired
// active set changed, else continue with the balance decision. A fixed
// session with none of these sends nothing. The checkpoint is taken
// last, so the snapshot matches the layout the next segment runs on (a
// check may remap). A recovery or a transition ends the boundary: each
// re-cut, reset the balancer and took the checkpoint itself. full=false
// is a Run start with nothing deferred: the checkpoint round and take
// only. The caller must have drained the pipeline and recorded the
// solver's timings first (a dying rank's last segment must still be
// accounted). It reports whether this rank's injected kill fired: the
// rank must then return from the SPMD body at once and silently.
func (s *Session) round(c *comm.Comm, rep *RunReport, iter int, tm solver.Timings, full bool) (died bool, err error) {
	me := c.Rank()
	rk := s.ranks[me]
	if s.ckptOn() && slices.ContainsFunc(s.cfg.Checkpoint.Kills, func(k ckpt.Kill) bool { return k.Rank == me && iter >= k.Iter }) {
		// The injected crash: go silent. The coordinator's deadline
		// detects the missing report.
		s.killed[me] = true
		return true, nil
	}
	start := s.clock.Now()
	balance := full && rk.bal != nil
	reports := s.ckptOn() || balance
	var v ctl.Verdict
	var detect time.Duration
	switch {
	case !reports && !(full && s.elastic):
	case me == 0:
		v, detect, err = s.coordinate(c, iter, tm, full, balance)
	default:
		v, err = s.await(c, iter, tm, reports)
	}
	switch {
	case err != nil:
		return false, err
	case v.Dead != nil:
		return false, fmt.Errorf("session: ranks %v died at iteration %d and their checkpoints died with them: %w",
			v.Dead, iter, ckpt.ErrUnrecoverable)
	case v.Recovery != nil:
		return false, s.recover(c, rep, v.Recovery, detect)
	case v.Epoch != nil:
		return false, s.commit(me, rep, v.Epoch, s.subs[me])
	case v.RunEnd:
		return false, fmt.Errorf("session: active rank %d got a run-end verdict at iteration %d", me, iter)
	}
	if balance {
		d, err := rk.bal.Apply(v.Decision, start)
		if err != nil {
			return false, err
		}
		if me == 0 {
			ev := CheckEvent{Iter: iter, Decision: d}
			rep.Checks = append(rep.Checks, ev)
			if s.cfg.OnCheck != nil {
				s.cfg.OnCheck(ev)
			}
		}
	}
	if s.ckptOn() {
		return false, s.ckptTake(me, iter)
	}
	return false, nil
}

// report is a rank's boundary report: the iteration, the window's
// rate and its last inspector time.
func (s *Session) report(rk *rankState, iter int, tm solver.Timings) []byte {
	return ctl.EncodeReport(ctl.Report{Iter: iter, Rate: tm.RatePerItem(), Inspector: rk.rt.LastInspectorTime().Seconds()})
}

// coordinate is rank 0's side of the round. With checkpoints or a
// balancer on it first receives one report per member — under
// DetectTimeout each with checkpoints, continuing past misses so one
// dead rank cannot mask another. It then chooses the verdict, sends
// it to the members (and an admission's same bytes to the admitted
// parked ranks), and returns it with the time collection took, a
// recovery's detection latency.
func (s *Session) coordinate(c *comm.Comm, iter int, tm solver.Timings, full, balance bool) (ctl.Verdict, time.Duration, error) {
	rk := s.ranks[0]
	cur := s.ctls[0].Membership()
	var v ctl.Verdict
	t0 := s.clock.Now()
	var reports [][]byte
	if s.ckptOn() || balance {
		reports = make([][]byte, len(cur.Active))
		reports[0] = s.report(rk, iter, tm)
		for i, r := range cur.Active[1:] {
			var data []byte
			var err error
			if s.ckptOn() {
				data, err = c.RecvTimeout(r, ctl.Tag, s.cfg.Checkpoint.DetectTimeout)
			} else {
				data, err = c.Recv(r, ctl.Tag)
			}
			if errors.Is(err, comm.ErrTimeout) {
				v.Dead = append(v.Dead, r)
				continue
			}
			if err != nil {
				return v, 0, err
			}
			defer c.Release(data)
			reports[i+1] = data
		}
	}
	detect := s.clock.Now().Sub(t0)
	if v.Dead != nil {
		v, survivors, err := s.recovery(iter, cur, v.Dead)
		if err == nil {
			err = multicast(c, survivors[1:], ctl.EncodeVerdict(v))
		}
		return v, detect, err
	}
	var rates []float64
	var inspector float64
	var err error
	if reports != nil {
		// Everyone answered: every report must be for this boundary.
		if rates, inspector, err = ctl.DecodeReports(reports, iter); err != nil {
			return v, 0, fmt.Errorf("session: iteration %d: %w", iter, err)
		}
	}
	if full && s.elastic {
		// The incoming layout is cut by the configured capability
		// weights restricted to the proposed set.
		cut := func(active []int) (*partition.Layout, error) { return rk.rt.CutLayout(s.activeWeights(active)) }
		if v.Epoch, err = s.ctls[0].Boundary(iter, s.desired(iter), rk.rt.Layout(), cut); err != nil {
			return v, 0, err
		}
	}
	if v.Epoch == nil && balance {
		d, err := rk.bal.Decide(rates, inspector)
		if err != nil {
			return v, 0, err
		}
		v.Decision = &d
	}
	payload := ctl.EncodeVerdict(v)
	if err := multicast(c, cur.Active[1:], payload); err != nil {
		return v, 0, err
	}
	if v.Epoch != nil {
		for _, r := range diffRanks(v.Epoch.Active, cur.Active) {
			if err := c.Send(r, ctl.Tag, payload); err != nil {
				return v, 0, err
			}
		}
	}
	return v, detect, nil
}

// multicast sends a verdict payload to the members to, if there are
// any.
func multicast(c *comm.Comm, to []int, payload []byte) error {
	if len(to) == 0 {
		return nil
	}
	return c.Multicast(to, ctl.Tag, payload)
}

// recovery is rank 0's verdict when the members dead missed their
// deadline, with the survivors: a recovery plan when every dead rank's
// checkpoint survives on its buddy, an abort otherwise.
func (s *Session) recovery(iter int, cur elastic.Membership, dead []int) (ctl.Verdict, []int, error) {
	ck, rk := s.cks[0], s.ranks[0]
	ck.MarkDead(dead)
	survivors := diffRanks(cur.Active, dead)
	ckIter, ckLayout, have := ck.Have()
	if have {
		for _, d := range dead {
			if h := ckpt.Holder(d, cur.Active); h == d || containsRank(dead, h) {
				return ctl.Verdict{Dead: dead}, survivors, nil
			}
		}
	}
	plan := &ctl.Recovery{Iter: iter, CkptIter: -1, Dead: dead, OldActive: cur.Active, NewActive: survivors, Old: rk.rt.Layout()}
	if have {
		// The take rules guarantee the last checkpoint was taken
		// under the current membership and layout.
		plan.CkptIter, plan.Old = ckIter, ckLayout
	}
	var err error
	plan.New, err = rk.rt.CutLayout(s.activeWeights(survivors))
	return ctl.Verdict{Recovery: plan}, survivors, err
}

// await is a member's side of the round: its report, when rank 0
// collects them, then the verdict — with checkpoints on, under a
// deadline, since a dead coordinator never sends one.
func (s *Session) await(c *comm.Comm, iter int, tm solver.Timings, reports bool) (ctl.Verdict, error) {
	if reports {
		if err := c.Send(0, ctl.Tag, s.report(s.ranks[c.Rank()], iter, tm)); err != nil {
			return ctl.Verdict{}, err
		}
	}
	active := len(s.ctls[c.Rank()].Membership().Active)
	var data []byte
	var err error
	if s.ckptOn() {
		// Rank 0 spends up to one timeout per member before its
		// verdict; only a dead coordinator exceeds this deadline, which
		// saturates rather than wrap for a huge DetectTimeout.
		deadline, n := time.Duration(math.MaxInt64), time.Duration(active+2)
		if timeout := s.cfg.Checkpoint.DetectTimeout; timeout <= deadline/n {
			deadline = n * timeout
		}
		data, err = c.RecvTimeout(0, ctl.Tag, deadline)
		if errors.Is(err, comm.ErrTimeout) {
			return ctl.Verdict{}, fmt.Errorf("session: no boundary verdict within %v at iteration %d, coordinator presumed dead: %w",
				deadline, iter, ckpt.ErrUnrecoverable)
		}
	} else {
		data, err = c.Recv(0, ctl.Tag)
	}
	if err != nil {
		return ctl.Verdict{}, err
	}
	v, err := ckpt.ReadVerdict(data, active)
	c.Release(data)
	if err != nil {
		return v, fmt.Errorf("session: iteration %d: %w", iter, err)
	}
	return v, nil
}

// desired is the coordinator's membership policy at a boundary: an
// explicit Resize request wins, otherwise the environment's
// availability windows name the set; nil means no change. A dead rank
// can never be re-admitted: the environment and Resize callers don't
// know who died, so the coordinator filters them here.
func (s *Session) desired(iter int) []int {
	want := s.ctls[0].TakeResize()
	if want == nil && s.cfg.Env != nil && s.cfg.Env.Elastic() {
		want = s.cfg.Env.ActiveSet(iter)
	}
	if want != nil && s.ckptOn() {
		want = s.cks[0].FilterDead(want)
	}
	return want
}
