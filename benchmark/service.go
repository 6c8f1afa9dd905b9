package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stance/client"
	"stance/internal/jobsvc"
)

// pollEvery is how often a client asks for its job's status.
const pollEvery = 2 * time.Millisecond

// serviceCounters are the service load's per-layer numbers, one value
// per timed job unless stated.
type serviceCounters struct {
	submitMs, statusMs []float64 // one per request
	queueMs, runMs     []float64 // Started-Submitted, Finished-Started
	sessionMs          []float64 // Report.Wall
	overheadMs         []float64 // job latency - Report.Wall
	polls              int
	resizes            int
	rejected           int
	readyT             time.Duration // jobsvc.New until the listener answers
	metricsT           time.Duration // one GET /metrics after the timed jobs
	poolMsgs           int64         // pool traffic over the timed jobs
}

// runServiceJobs starts an in-process stanced behind a loopback HTTP
// listener, sends it the w.WarmJobs warm-up jobs (the first of them
// alone, as the end of set-up) and then the timed jobs from w.Clients
// closed-loop clients (each submits its next job only when the previous
// one is terminal), and shuts everything down.
func runServiceJobs(parent context.Context, w workload, jobs []client.Spec, ref *oracle, rec *recorder) *episode {
	timed := len(jobs) - w.WarmJobs
	ep := &episode{traced: rec != nil, attempted: timed, failed: timed, svc: &serviceCounters{}}
	ctx, cancel := context.WithTimeout(parent, w.Deadline)
	defer cancel()

	root := rec.begin("service", -1, -1, -1)
	defer rec.end(root)
	t0 := time.Now()
	id := rec.begin("jobsvc.new", root, -1, -1)
	svc, err := jobsvc.New(jobsvc.Config{PoolRanks: w.P})
	rec.end(id)
	if err != nil {
		ep.err = fmt.Errorf("jobsvc.New: %w", err)
		return ep
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		ep.err = fmt.Errorf("listen: %w", err)
		return ep
	}
	srv := &http.Server{Handler: svc.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns ErrServerClosed on Shutdown below
	}()
	cl := client.New("http://" + ln.Addr().String())
	defer func() {
		tc := time.Now()
		id := rec.begin("service.close", root, -1, -1)
		// The clients hang up first: a connection the transport dialled
		// ahead and never used counts as active to Shutdown for five
		// seconds.
		if t, ok := http.DefaultTransport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
		// The deadline may be what ended the run; shut down regardless.
		stop, stopCancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(stop)
		stopCancel()
		<-served
		if err := svc.Close(); err != nil && ep.err == nil {
			ep.err = fmt.Errorf("service Close: %w", err)
		}
		rec.end(id)
		ep.closeT = time.Since(tc)
		ep.total = time.Since(t0)
	}()
	if _, err := cl.Metrics(ctx); err != nil {
		ep.err = fmt.Errorf("service not accepting: %w", err)
		return ep
	}
	ep.svc.readyT = time.Since(t0)
	// Set-up ends when the fresh service has finished its first job: the
	// bare start is a fifth of a millisecond of mostly TCP handshake,
	// too small and too bimodal to compare, while the cold start is what
	// a user of a new stanced waits for.
	if first := runOneJob(ctx, cl, jobs[0], ref, rec, root, 0); first.err != nil {
		ep.err = fmt.Errorf("first job: %w", first.err)
		return ep
	}
	ep.setup = time.Since(t0)

	var mu sync.Mutex // guards ep and its counters inside the clients
	drive := func(specs []client.Spec, record bool) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < w.Clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(specs) || ctx.Err() != nil {
						return
					}
					out := runOneJob(ctx, cl, specs[i], ref, rec, root, i)
					if !record {
						continue
					}
					mu.Lock()
					out.addTo(ep)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	drive(jobs[1:w.WarmJobs], false)
	before := svc.Metrics().PoolMsgs
	cpu0 := readUsage().cpu
	tt := time.Now()
	drive(jobs[w.WarmJobs:], true)
	ep.timedWall = time.Since(tt)
	ep.cpu = readUsage().cpu - cpu0
	ep.failed = timed - len(ep.opMs)

	tm := time.Now()
	id = rec.begin("client.metrics", root, -1, -1)
	m, err := cl.Metrics(ctx)
	rec.end(id)
	ep.svc.metricsT = time.Since(tm)
	if err != nil {
		if ep.err == nil {
			ep.err = fmt.Errorf("GET /metrics: %w", err)
		}
		return ep
	}
	ep.svc.poolMsgs = m.PoolMsgs - before
	return ep
}

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	err              error
	rejected         bool
	latency, submitT time.Duration
	statusT          []time.Duration
	final            *client.Status
}

// runOneJob submits one spec and polls until the job is terminal. The
// stopwatch starts before Submit and stops at the first poll that shows
// a terminal state.
func runOneJob(ctx context.Context, cl *client.Client, spec client.Spec, ref *oracle, rec *recorder, root, index int) jobOutcome {
	var out jobOutcome
	job := rec.begin("job", root, -1, index)
	defer rec.end(job)
	t0 := time.Now()
	id := rec.begin("client.submit", job, -1, index)
	st, err := cl.Submit(ctx, spec)
	rec.end(id)
	out.submitT = time.Since(t0)
	if err != nil {
		out.err = fmt.Errorf("submit %s: %w", spec.Name, err)
		out.rejected = strings.Contains(err.Error(), "429") || strings.Contains(err.Error(), "queue full")
		return out
	}
	for !st.State.Finished() {
		select {
		case <-ctx.Done():
			out.err = fmt.Errorf("job %s: %w", spec.Name, ctx.Err())
			return out
		case <-time.After(pollEvery):
		}
		tp := time.Now()
		id := rec.begin("client.status", job, -1, index)
		st, err = cl.Job(ctx, st.ID)
		rec.end(id)
		out.statusT = append(out.statusT, time.Since(tp))
		if err != nil {
			out.err = fmt.Errorf("poll %s: %w", spec.Name, err)
			return out
		}
	}
	out.latency = time.Since(t0)
	out.final = st
	switch {
	case st.State != client.Done:
		out.err = fmt.Errorf("job %s ended %s: %s", spec.Name, st.State, st.Error)
	case st.Report == nil:
		out.err = fmt.Errorf("job %s is done without a report", spec.Name)
	case spec.ReturnResult:
		if err := ref.check(st.Result); err != nil {
			out.err = fmt.Errorf("job %s: result differs from the sequential reference: %w", spec.Name, err)
		}
	}
	return out
}

// addTo records a finished job in its episode. A failed job leaves no
// timing behind: it only counts as failed.
func (o jobOutcome) addTo(ep *episode) {
	if o.rejected {
		ep.svc.rejected++
	}
	if o.err != nil {
		if ep.err == nil {
			ep.err = o.err
		}
		return
	}
	st := o.final
	ep.opMs = append(ep.opMs, ms(o.latency))
	ep.iterMs = append(ep.iterMs, ms(o.latency)/float64(st.Report.Iters))
	ep.iters += st.Report.Iters
	c := ep.svc
	c.submitMs = append(c.submitMs, ms(o.submitT))
	for _, d := range o.statusT {
		c.statusMs = append(c.statusMs, ms(d))
	}
	c.polls += len(o.statusT)
	c.queueMs = append(c.queueMs, ms(st.Started.Sub(st.Submitted)))
	c.runMs = append(c.runMs, ms(st.Finished.Sub(st.Started)))
	c.sessionMs = append(c.sessionMs, ms(st.Report.Wall))
	c.overheadMs = append(c.overheadMs, ms(o.latency-st.Report.Wall))
	c.resizes += st.Resizes
}
