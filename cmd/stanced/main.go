// Command stanced is the STANCE job service daemon: it owns a fixed
// pool of worker ranks and serves an HTTP API that runs many
// independent computations on it concurrently. Jobs queue when the
// pool is full; the scheduler uses the elastic membership protocol to
// shrink running jobs and hand the freed ranks to the queue, and every
// job's result is bit-identical to a run alone in a dedicated world.
//
//	stanced -addr :8080 -pool 8
//	curl -s localhost:8080/v1/jobs -d '{"graph":{"kind":"honeycomb","rows":20,"cols":30},"iters":100,"ranks":4}'
//	curl -s localhost:8080/metrics
//
// With -virtual the whole service — jobs, deadlines, metrics
// timestamps — runs on a deterministic simulated clock; combine with
// per-job compute_cost_ns to model hours of cluster time in wall
// milliseconds.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stance/internal/comm"
	"stance/internal/jobsvc"
	"stance/internal/vtime"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stanced: ")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	pool := flag.Int("pool", 4, "worker pool size (ranks)")
	transport := flag.String("transport", "inproc", "comm transport: "+strings.Join(comm.Transports(), ", "))
	latency := flag.Duration("latency", 0, "modeled per-message network latency")
	bandwidth := flag.Float64("bandwidth", 0, "modeled network bandwidth in bytes/s (0 = infinite)")
	delay := flag.Duration("delay", 0, "modeled one-way delivery delay (inproc transport only)")
	maxJobs := flag.Int("max-jobs", 0, "max concurrently running jobs (0 = pool size)")
	maxRanks := flag.Int("max-ranks", 0, "max ranks one job may request (0 = pool size)")
	queue := flag.Int("queue", 64, "admission queue depth (backpressure beyond it)")
	virtual := flag.Bool("virtual", false, "run the pool on the simulated clock (inproc transport only)")
	flushPeriod := flag.Duration("flush", 0, "tcp tx batching linger for the pool mesh (0 = flush immediately)")
	batchBytes := flag.Int("batch", 0, "tcp tx batch cap in bytes (0 = transport default)")
	compress := flag.String("compress", "", "tcp per-batch compression codec: none, flate or gzip")
	hbInterval := flag.Duration("hb", 0, "tcp heartbeat interval for transport-level liveness (0 = off)")
	hbMiss := flag.Int("hb-miss", 0, "consecutive missed tcp heartbeats before a peer is declared dead (0 = default)")
	flag.Parse()

	netOpts := comm.TransportOptions{
		FlushPeriod:       *flushPeriod,
		BatchBytes:        *batchBytes,
		Compression:       *compress,
		HeartbeatInterval: *hbInterval,
		HeartbeatMiss:     *hbMiss,
	}
	if *latency != 0 || *bandwidth != 0 || *delay != 0 {
		netOpts.Model = &comm.Model{Latency: *latency, Bandwidth: *bandwidth, Delay: *delay}
	}
	if *virtual {
		netOpts.Clock = vtime.NewSim()
	}
	if err := netOpts.Validate(); err != nil {
		log.Fatal(err)
	}

	// Listen before building the pool: a bad or taken address fails
	// here, and the log names the bound address (useful with port 0).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	svc, err := jobsvc.New(jobsvc.Config{
		PoolRanks:      *pool,
		Transport:      *transport,
		Net:            netOpts,
		MaxConcurrent:  *maxJobs,
		MaxRanksPerJob: *maxRanks,
		QueueDepth:     *queue,
	})
	if err != nil {
		log.Fatal(err)
	}

	srv := &http.Server{Handler: svc.Handler()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	log.Printf("pool of %d %s ranks, serving on %s", *pool, *transport, ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var serveErr error
	select {
	case s := <-sig:
		log.Printf("%v: draining", s)
	case serveErr = <-done:
		log.Printf("serve: %v", serveErr)
	}

	// Stop taking requests, then cancel every job and close the pool.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Close(); err != nil {
		log.Printf("service close: %v", err)
	}
	log.Printf("bye")
	if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		os.Exit(1)
	}
}
