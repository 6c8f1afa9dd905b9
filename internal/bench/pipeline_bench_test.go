package bench

// Pipeline benchmarks: executor depths 0, 1 and 2 under an injected
// delivery delay, on a two-field kernel whose compute is too small to
// cover the flight time. Depth 0 waits out one delay per field per
// iteration. Depths >= 1 keep both fields' exchanges in flight at once,
// so the per-iteration delay exposure collapses from fields × delay to
// one delay; depth 2 additionally restarts a field's exchange the
// moment its update completes. Compare depth=0/1/2 in bench.json.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"stance/internal/comm"
	"stance/internal/mesh"
	"stance/internal/session"
	"stance/internal/vtime"
)

// BenchmarkPipelineLatencyHiding measures whole two-field solver
// iterations under the injected delivery delay, with compute too small
// to cover the flight time: depth 0 pays ~2 delays per iteration (one
// per field), depths 1 and 2 ~1 (both exchanges in flight together).
func BenchmarkPipelineLatencyHiding(b *testing.B) {
	for depth := 0; depth <= 2; depth++ {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			g, err := mesh.Honeycomb(60, 100)
			if err != nil {
				b.Fatal(err)
			}
			s, err := session.New(context.Background(), g, session.Config{
				Procs:     4,
				Net:       comm.TransportOptions{Model: &comm.Model{Delay: benchDelay}},
				OrderName: "rcb",
				Fields:    2,
				Pipeline:  depth,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			// Warm the plan's wire buffers, handle pools and the
			// rotating-tag mailbox slots.
			if _, err := s.Run(2); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			rep, err := s.Run(b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if depth > 0 {
				b.ReportMetric(float64(rep.Exec.Idle.Nanoseconds())/float64(b.N), "idle-ns/op")
				if rep.Exec.Pipelined == 0 {
					b.Fatal("two fields at depth >= 1 recorded no pipelined ops")
				}
			}
		})
	}
}

// TestPipelineLatencyHidingVirtual is the exact acceptance assertion
// on a simulated clock: a 4-rank two-field session under a 5ms one-way
// delay with compute far smaller than the flight time. Every quantity
// is virtual and deterministic, so the bounds cannot flake. Depths 1
// and 2 must each beat depth 0 by at least 10% virtual wall time —
// depth 0 waits out the two fields' exchanges one after the other
// (≈2 delays/iteration) while depths >= 1 fly them together (≈1) — and
// restarting exchanges across the iteration boundary must not make
// depth 2 slower than depth 1.
func TestPipelineLatencyHidingVirtual(t *testing.T) {
	const iters = 30
	run := func(depth int) *session.RunReport {
		g, err := mesh.Honeycomb(60, 100)
		if err != nil {
			t.Fatal(err)
		}
		s, err := session.New(context.Background(), g, session.Config{
			Procs:       4,
			Net:         comm.TransportOptions{Model: &comm.Model{Delay: benchDelay}, Clock: vtime.NewSim()},
			OrderName:   "rcb",
			ComputeCost: 500 * time.Nanosecond,
			Fields:      2,
			Pipeline:    depth,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Run(2); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(iters)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	wall := time.Now()
	d0, d1, d2 := run(0), run(1), run(2)
	t.Logf("virtual: depth 0 %v, depth 1 %v (idle %v), depth 2 %v (idle %v, %d pipelined of %d ops) in %v real",
		d0.Wall, d1.Wall, d1.Exec.Idle, d2.Wall, d2.Exec.Idle,
		d2.Exec.Pipelined, d2.Exec.Ops, time.Since(wall))
	if d1.Exec.Pipelined == 0 || d2.Exec.Pipelined == 0 {
		t.Fatalf("two fields at depth >= 1 recorded no ops issued while another was in flight: depth 1 %d, depth 2 %d",
			d1.Exec.Pipelined, d2.Exec.Pipelined)
	}
	if d0.Exec.Pipelined != 0 {
		t.Fatalf("depth 0 recorded %d pipelined ops", d0.Exec.Pipelined)
	}
	for depth, rep := range map[int]*session.RunReport{1: d1, 2: d2} {
		if rep.Wall > d0.Wall-d0.Wall/10 {
			t.Errorf("depth %d took %v virtual, depth 0 %v; it should win by >=10%% under a %v one-way delay",
				depth, rep.Wall, d0.Wall, benchDelay)
		}
	}
	if d2.Wall > d1.Wall {
		t.Errorf("depth 2 took %v virtual, depth 1 %v; posting ahead must not cost time", d2.Wall, d1.Wall)
	}
}
