package jobsvc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"stance/internal/comm"
	"stance/internal/session"
	"stance/internal/vtime"
)

// Sentinel errors for the service API.
var (
	// ErrQueueFull is Submit's backpressure signal: the queue is at
	// QueueDepth. Callers retry later or shed load.
	ErrQueueFull = errors.New("jobsvc: queue full")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobsvc: no such job")
	// ErrFinished reports a Cancel on a job that already reached a
	// terminal state.
	ErrFinished = errors.New("jobsvc: job already finished")
)

// Cancellation causes, distinguishable through context.Cause.
var (
	errCanceledByUser = errors.New("jobsvc: canceled by caller")
	errDeadline       = errors.New("jobsvc: deadline exceeded")
	errShutdown       = errors.New("jobsvc: service shutting down")
)

// Config parameterizes a Service.
type Config struct {
	// PoolRanks is the fixed worker pool size. Required.
	PoolRanks int
	// Transport names the comm transport the pool runs on ("" means
	// "inproc").
	Transport string
	// Net describes the pool's network and goes to comm.Open
	// unchanged: the cost model (nil Model: a free network), the clock
	// (nil Clock: the real clock) and the wire tuning (batching,
	// compression, heartbeats). The service runs on the pool's clock,
	// so a vtime.Sim runs the whole service — every job, every
	// deadline — in deterministic virtual time. It is pool-scoped, not
	// per-job: every session multiplexes over the one shared world, so
	// there is exactly one flush loop and one liveness policy to tune.
	Net comm.TransportOptions
	// MaxConcurrent caps simultaneously running jobs (0: PoolRanks,
	// the natural bound since every job needs at least one rank).
	MaxConcurrent int
	// MaxRanksPerJob caps a single job's grant (0: PoolRanks).
	MaxRanksPerJob int
	// QueueDepth bounds the admission queue; Submit returns
	// ErrQueueFull beyond it (0: 64).
	QueueDepth int
	// Policy decides grants and shrinks (nil: FairShare).
	Policy Policy
	// StartHeld creates the service with scheduling paused: submitted
	// jobs queue up and nothing launches until Release. Tests use it to
	// make burst arrival order deterministic.
	StartHeld bool
}

// Service owns the pool world and multiplexes jobs onto it.
type Service struct {
	cfg   Config
	pool  *comm.World
	clock vtime.Clock

	mu       sync.Mutex
	held     bool
	closed   bool
	seq      int
	jobs     map[string]*job
	queue    []*job
	busy     map[int]string // pool rank -> occupying job ID
	nRunning int
	counts   map[State]int
	// latencies are finished jobs' submit-to-finish times in seconds,
	// for the /metrics latency summary.
	latencies []float64
	decisions []Decision
	decSeq    int

	wg sync.WaitGroup
}

// New opens the pool world and starts the (initially idle) service.
func New(cfg Config) (*Service, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = cfg.PoolRanks
	}
	if cfg.MaxRanksPerJob <= 0 || cfg.MaxRanksPerJob > cfg.PoolRanks {
		cfg.MaxRanksPerJob = cfg.PoolRanks
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Policy == nil {
		cfg.Policy = FairShare{}
	}
	pool, err := comm.Open(cfg.Transport, cfg.PoolRanks, cfg.Net)
	if err != nil {
		return nil, err
	}
	return &Service{
		cfg:    cfg,
		pool:   pool,
		clock:  pool.Comm(0).Clock(),
		held:   cfg.StartHeld,
		jobs:   make(map[string]*job),
		busy:   make(map[int]string),
		counts: make(map[State]int),
	}, nil
}

// Submit validates and enqueues a job, returning its initial status.
// The scheduler places it as soon as the policy and the pool allow;
// ErrQueueFull is the backpressure signal when the queue is at
// capacity.
func (s *Service) Submit(spec Spec) (*Status, error) {
	spec = spec.withDefaults()
	if err := spec.validate(s.cfg.MaxRanksPerJob); err != nil {
		return nil, err
	}
	cfg, err := spec.sessionConfig()
	if err != nil {
		return nil, err
	}
	g, err := spec.Graph.Build()
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errShutdown
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		return nil, ErrQueueFull
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("job-%d", s.seq),
		spec:      spec,
		cfg:       cfg,
		g:         g,
		state:     Queued,
		submitted: s.clock.Now(),
	}
	j.ctx, j.cancel = context.WithCancelCause(context.Background())
	if spec.Timeout > 0 {
		j.timer = s.clock.AfterFunc(spec.Timeout, func() { s.expire(j) })
	}
	s.jobs[j.id] = j
	s.queue = append(s.queue, j)
	s.counts[Queued]++
	s.recordLocked("queue", j.id, nil, fmt.Sprintf("wants %d ranks (min %d)", spec.Ranks, spec.MinRanks))
	s.scheduleLocked()
	return j.statusLocked(), nil
}

// Get returns a job's status.
func (s *Service) Get(id string) (*Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.statusLocked(), nil
}

// List returns every job's status, oldest first.
func (s *Service) List() []*Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		return jobSeq(ids[a]) < jobSeq(ids[b])
	})
	out := make([]*Status, len(ids))
	for i, id := range ids {
		out[i] = s.jobs[id].statusLocked()
	}
	return out
}

// jobSeq extracts the numeric suffix of "job-N" for ordering.
func jobSeq(id string) int {
	n := 0
	for i := len("job-"); i < len(id); i++ {
		n = n*10 + int(id[i]-'0')
	}
	return n
}

// Cancel stops a job: a queued job leaves the queue immediately, a
// running one has its context canceled and winds down at the next
// blocking point.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	switch j.state {
	case Queued:
		s.dequeueLocked(j)
		s.setStateLocked(j, Canceled)
		j.finished = s.clock.Now()
		j.err = errCanceledByUser
		s.stopTimerLocked(j)
		s.recordLocked("cancel", j.id, nil, "canceled while queued")
		s.scheduleLocked()
		s.mu.Unlock()
		return nil
	case Running:
		s.recordLocked("cancel", j.id, nil, "cancel requested")
		s.mu.Unlock()
		j.cancel(errCanceledByUser)
		return nil
	default:
		s.mu.Unlock()
		return ErrFinished
	}
}

// Release starts scheduling on a service created with StartHeld.
func (s *Service) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.held = false
	s.scheduleLocked()
}

// Close cancels every job, waits for them to wind down and closes the
// pool world.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for _, j := range s.queue {
		s.setStateLocked(j, Canceled)
		j.finished = s.clock.Now()
		j.err = errShutdown
		s.stopTimerLocked(j)
	}
	s.queue = nil
	var running []*job
	for _, j := range s.jobs {
		if j.state == Running {
			running = append(running, j)
		}
	}
	s.mu.Unlock()
	for _, j := range running {
		j.cancel(errShutdown)
	}
	s.wg.Wait()
	return s.pool.Close()
}

// expire is the deadline timer's callback.
func (s *Service) expire(j *job) {
	s.mu.Lock()
	switch j.state {
	case Queued:
		s.dequeueLocked(j)
		s.setStateLocked(j, Failed)
		j.finished = s.clock.Now()
		j.err = errDeadline
		s.recordLocked("deadline", j.id, nil, "expired while queued")
		s.scheduleLocked()
		s.mu.Unlock()
	case Running:
		s.recordLocked("deadline", j.id, nil, "expired while running")
		s.mu.Unlock()
		j.cancel(errDeadline)
	default:
		s.mu.Unlock()
	}
}

// dequeueLocked removes j from the admission queue.
func (s *Service) dequeueLocked(j *job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// setStateLocked moves j between states, maintaining the counters.
func (s *Service) setStateLocked(j *job, st State) {
	s.counts[j.state]--
	j.state = st
	s.counts[st]++
	if st == Running {
		s.nRunning++
	}
	if st.Finished() {
		if j.started != (time.Time{}) {
			s.nRunning--
		}
		// A finished job is its status, report and result; the session
		// and the graph it ran on would otherwise live as long as the
		// record does.
		j.sess, j.g = nil, nil
	}
}

func (s *Service) stopTimerLocked(j *job) {
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
}

// freeRanksLocked lists pool ranks in no job's active set, ascending.
func (s *Service) freeRanksLocked() []int {
	free := make([]int, 0, s.cfg.PoolRanks-len(s.busy))
	for r := 0; r < s.cfg.PoolRanks; r++ {
		if _, taken := s.busy[r]; !taken {
			free = append(free, r)
		}
	}
	return free
}

func (s *Service) poolStateLocked() PoolState {
	return PoolState{
		PoolRanks: s.cfg.PoolRanks,
		Free:      s.cfg.PoolRanks - len(s.busy),
		Running:   s.nRunning,
		Queued:    len(s.queue),
	}
}

func (j *job) view() JobView {
	return JobView{
		ID:            j.id,
		Name:          j.spec.Name,
		Want:          j.spec.Ranks,
		Min:           j.spec.MinRanks,
		Active:        len(j.activeSub),
		ResizePending: j.resizePending,
	}
}

// scheduleLocked is the scheduler: launch queued jobs while the policy
// grants them ranks; when the head of the queue is stuck, ask the
// policy to shrink running jobs toward it; when the queue is empty,
// grow shrunken jobs back toward their grant. Runs under the service
// mutex at every event that changes the pool (submit, membership
// commit, job completion, release).
func (s *Service) scheduleLocked() {
	if s.held || s.closed {
		return
	}
	for len(s.queue) > 0 && s.nRunning < s.cfg.MaxConcurrent {
		j := s.queue[0]
		free := s.freeRanksLocked()
		give := s.cfg.Policy.Grant(j.view(), s.poolStateLocked())
		if give > j.spec.Ranks {
			give = j.spec.Ranks
		}
		if give > len(free) {
			give = len(free)
		}
		if give >= j.spec.MinRanks && give > 0 {
			s.queue = s.queue[1:]
			s.launchLocked(j, free[:give])
			continue
		}
		// The head of the queue is stuck: recover ranks from running
		// jobs via the epoch protocol, then wait for the commits.
		s.requestShrinksLocked(j.spec.MinRanks - len(free))
		return
	}
	if len(s.queue) == 0 {
		s.regrowLocked()
	}
}

// launchLocked carves the sub-world ranks out of the pool and starts
// the job goroutine.
func (s *Service) launchLocked(j *job, ranks []int) {
	j.granted = append([]int(nil), ranks...)
	j.activeSub = make([]int, len(ranks))
	for i, r := range ranks {
		j.activeSub[i] = i
		s.busy[r] = j.id
	}
	s.setStateLocked(j, Running)
	j.started = s.clock.Now()
	s.recordLocked("grant", j.id, ranks, fmt.Sprintf("launch on %d of %d wanted ranks", len(ranks), j.spec.Ranks))
	s.wg.Add(1)
	go s.runJob(j)
}

// requestShrinksLocked asks the policy to free `need` ranks and issues
// the resizes. The freed ranks only become available at each job's
// next membership boundary; the commit callback re-runs the scheduler.
func (s *Service) requestShrinksLocked(need int) {
	if need <= 0 {
		return
	}
	var views []JobView
	victims := make(map[string]*job)
	for _, j := range s.jobs {
		if j.state == Running && j.sess != nil && len(j.granted) > 1 {
			views = append(views, j.view())
			victims[j.id] = j
		}
	}
	sort.Slice(views, func(a, b int) bool { return jobSeq(views[a].ID) < jobSeq(views[b].ID) })
	plan := s.cfg.Policy.Shrink(views, need, s.poolStateLocked())
	for id, newSize := range plan {
		j := victims[id]
		if j == nil || j.resizePending || newSize < j.spec.MinRanks || newSize < 1 || newSize >= len(j.activeSub) {
			continue
		}
		keep := append([]int(nil), j.activeSub[:newSize]...)
		if err := j.sess.Resize(keep); err != nil {
			s.recordLocked("shrink-failed", j.id, nil, err.Error())
			continue
		}
		j.resizePending = true
		released := make([]int, 0, len(j.activeSub)-newSize)
		for _, sr := range j.activeSub[newSize:] {
			released = append(released, j.granted[sr])
		}
		s.recordLocked("shrink", j.id, released, fmt.Sprintf("%d -> %d ranks for the queue", len(j.activeSub), newSize))
	}
}

// regrowLocked hands idle ranks back to shrunken running jobs, oldest
// first — the pool should not sit idle while a job limps along below
// its grant.
func (s *Service) regrowLocked() {
	var running []*job
	for _, j := range s.jobs {
		if j.state == Running && j.sess != nil && !j.resizePending && len(j.activeSub) < len(j.granted) {
			running = append(running, j)
		}
	}
	sort.Slice(running, func(a, b int) bool { return jobSeq(running[a].id) < jobSeq(running[b].id) })
	for _, j := range running {
		var want []int // sub-ranks to re-admit
		var ranks []int
		active := make(map[int]bool, len(j.activeSub))
		for _, sr := range j.activeSub {
			active[sr] = true
		}
		for sr, r := range j.granted {
			if active[sr] {
				continue
			}
			if _, taken := s.busy[r]; !taken {
				want = append(want, sr)
				ranks = append(ranks, r)
			}
		}
		if len(want) == 0 {
			continue
		}
		next := append(append([]int(nil), j.activeSub...), want...)
		sort.Ints(next)
		if err := j.sess.Resize(next); err != nil {
			s.recordLocked("grow-failed", j.id, nil, err.Error())
			continue
		}
		// Reserve immediately: the ranks are committed to this job even
		// though the admission only happens at its next boundary.
		for _, r := range ranks {
			s.busy[r] = j.id
		}
		j.resizePending = true
		s.recordLocked("grow", j.id, ranks, fmt.Sprintf("%d -> %d ranks", len(j.activeSub), len(next)))
	}
}

// runJob owns one job from launch to completion: carve the sub-world,
// build the session, run, gather, report. It runs on its own goroutine
// so the scheduler never blocks on a job.
func (s *Service) runJob(j *job) {
	defer s.wg.Done()
	rep, result, err := s.executeJob(j)
	s.finish(j, rep, result, err)
}

// executeJob is runJob without the bookkeeping.
func (s *Service) executeJob(j *job) (*session.RunReport, []float64, error) {
	subComms := make([]*comm.Comm, len(j.granted))
	for i, r := range j.granted {
		sc, err := s.pool.Comm(r).Sub(j.granted)
		if err != nil {
			return nil, nil, err
		}
		subComms[i] = sc
	}
	world := comm.WrapWorld(subComms)
	defer world.Close()
	cfg := onWorld(j.cfg, world)
	cfg.OnMembership = func(ev session.MembershipEvent) { s.onMembership(j, ev) }
	sess, err := session.New(j.ctx, j.g, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	s.mu.Lock()
	j.sess = sess
	// A job queued while this session was still building could not
	// shrink it (no Resize target yet); retry now that it has one.
	s.scheduleLocked()
	s.mu.Unlock()
	rep, err := sess.Run(j.spec.Iters)
	if err != nil {
		return nil, nil, err
	}
	var result []float64
	if j.spec.ReturnResult {
		if result, err = sess.ResultByVertex(); err != nil {
			return rep, nil, err
		}
	}
	return rep, result, nil
}

// onMembership is the session's commit callback (rank 0, inside the
// job's SPMD section): fold the new active set into the pool
// accounting — a shrink's retired ranks become free here and only here
// — and re-run the scheduler, which may hand them straight to the head
// of the queue.
func (s *Service) onMembership(j *job, ev session.MembershipEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wasBusy := make(map[int]bool, len(j.activeSub))
	for _, r := range j.activePool() {
		wasBusy[r] = true
	}
	j.activeSub = append([]int(nil), ev.Active...)
	sort.Ints(j.activeSub)
	nowBusy := make(map[int]bool, len(j.activeSub))
	for _, r := range j.activePool() {
		nowBusy[r] = true
	}
	var freed []int
	for r := range wasBusy {
		if !nowBusy[r] {
			delete(s.busy, r)
			freed = append(freed, r)
		}
	}
	sort.Ints(freed)
	j.resizePending = false
	j.resizes++
	s.recordLocked("commit", j.id, freed,
		fmt.Sprintf("epoch %d: %d active", ev.Epoch, len(ev.Active)))
	s.scheduleLocked()
}

// finish retires a job: free its ranks, classify the outcome and give
// the scheduler the pool back.
func (s *Service) finish(j *job, rep *session.RunReport, result []float64, runErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for r, id := range s.busy {
		if id == j.id {
			delete(s.busy, r)
		}
	}
	j.resizePending = false
	j.finished = s.clock.Now()
	j.report = rep
	j.result = result
	s.stopTimerLocked(j)
	switch cause := context.Cause(j.ctx); {
	case runErr == nil:
		s.setStateLocked(j, Done)
		s.latencies = append(s.latencies, j.finished.Sub(j.submitted).Seconds())
		s.recordLocked("done", j.id, nil, fmt.Sprintf("%d iters, %d resizes", j.spec.Iters, j.resizes))
	case errors.Is(cause, errCanceledByUser):
		s.setStateLocked(j, Canceled)
		j.err = errCanceledByUser
		s.recordLocked("canceled", j.id, nil, "")
	case errors.Is(cause, errDeadline):
		s.setStateLocked(j, Failed)
		j.err = fmt.Errorf("%w after %v", errDeadline, j.spec.Timeout)
		s.recordLocked("failed", j.id, nil, j.err.Error())
	default:
		s.setStateLocked(j, Failed)
		j.err = runErr
		s.recordLocked("failed", j.id, nil, runErr.Error())
	}
	s.scheduleLocked()
}
