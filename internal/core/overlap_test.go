package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"stance/internal/comm"
	"stance/internal/graph"
	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/vtime"
)

// Every layout change that migrates data rebuilds the schedule while
// the vectors move (migrateAndInspect). These tests pin the overlap's
// contract: it cannot be seen on a simulated clock, and every path —
// a failed migration, a failed or panicking rebuild — joins it before
// Rebind returns.

// TestOverlapInspectorIsInvisibleOnSim runs a remap and a shrink+grow
// rebind on a simulated clock with a priced network, so virtual time
// passes while each rank's migration waits and its rebuild runs. The
// rebuild reads no clock: every inspector time stays zero, what a
// rebuild on the rank's own goroutine reads, and the schedules equal
// the reference inspector's.
func TestOverlapInspectorIsInvisibleOnSim(t *testing.T) {
	g := overlapMesh(t)
	world, err := comm.Open("inproc", 3, comm.TransportOptions{Clock: vtime.NewSim(), Model: comm.Ethernet(0.02)})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	all, survivors := []int{0, 1, 2}, []int{0, 1}
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		rt.NewVector().SetByGlobal(initValue)
		st, err := rt.Remap([]float64{3, 1, 1})
		if err != nil {
			return err
		}
		if !st.Changed || st.Total <= 0 {
			return fmt.Errorf("remap changed=%v in %v of virtual time; the test needs a priced migration", st.Changed, st.Total)
		}
		if st.Inspector != 0 || rt.LastInspectorTime() != 0 {
			return fmt.Errorf("remap inspector %v, LastInspectorTime %v on the simulated clock, want 0",
				st.Inspector, rt.LastInspectorTime())
		}
		if err := checkOracle(rt, oracleSort2); err != nil {
			return fmt.Errorf("after the remap: %w", err)
		}
		full := rt.Layout()
		shrunk, err := rt.CutLayout([]float64{1, 1})
		if err != nil {
			return err
		}
		var sub *comm.Comm
		if c.Rank() < 2 {
			if sub, err = c.Sub(survivors); err != nil {
				return err
			}
		}
		shrink, err := rt.Rebind(Rebind{Carrier: c, Sub: sub, Old: full, New: shrunk, OldProcs: all, NewProcs: survivors})
		if err != nil {
			return err
		}
		if sub, err = c.Sub(all); err != nil {
			return err
		}
		grow, err := rt.Rebind(Rebind{Carrier: c, Sub: sub, Old: shrunk, New: full, OldProcs: survivors, NewProcs: all})
		if err != nil {
			return err
		}
		if grow.Total <= 0 {
			return fmt.Errorf("the grow took %v of virtual time; the test needs a priced migration", grow.Total)
		}
		if shrink.Inspector != 0 || grow.Inspector != 0 || rt.LastInspectorTime() != 0 {
			return fmt.Errorf("rebind inspectors %v and %v, LastInspectorTime %v on the simulated clock, want 0",
				shrink.Inspector, grow.Inspector, rt.LastInspectorTime())
		}
		if err := checkOracle(rt, oracleSort2); err != nil {
			return fmt.Errorf("after the shrink and grow: %w", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// overlapMesh is large enough that a rank's rebuild outlasts the
// migration beside it.
func overlapMesh(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := mesh.GridTriangulated(120, 120, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// settledGoroutines waits for the goroutine count to stop falling — a
// closed world's rank goroutines exit on their own schedule — and
// returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// goroutinesBackTo reports whether the goroutine count returns to at
// most n within a second. A joined goroutine has finished its work but
// may not have exited the instant its join returns.
func goroutinesBackTo(n int) bool {
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= n {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// TestOverlapJoinsAFailedMigration is TestRemapFailsCleanlyOnClosedWorld
// with the overlap in view: the migration fails at once, and its error
// comes back only after the rebuild that ran beside it has ended — the
// schedule is already the new one — leaving no goroutine behind.
func TestOverlapJoinsAFailedMigration(t *testing.T) {
	g := overlapMesh(t)
	world := openWorld(t, 2)
	rts := make([]*Runtime, 2)
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		rt.NewVector()
		rts[c.Rank()] = rt
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	world.Close()
	before, sch := settledGoroutines(), rts[0].Schedule()
	if _, err := rts[0].Remap([]float64{3, 1}); !errors.Is(err, comm.ErrClosed) {
		t.Fatalf("remap on a closed world returned %v, want the migration's %v", err, comm.ErrClosed)
	}
	if rts[0].Schedule() == sch {
		t.Fatal("the failed remap returned before its rebuild ended")
	}
	if !goroutinesBackTo(before) {
		t.Fatalf("%d goroutines after the failed remap, %d before", runtime.NumGoroutine(), before)
	}
}

// TestOverlapJoinsAFailingRebuild breaks the last rank's rebuild — a
// reference out of range, then a row table too short to slice, which
// panics — while its migration succeeds. Either way Rebind returns the
// rebuild's failure as an error once the rebuild has ended, and the
// other rank's remap goes through.
func TestOverlapJoinsAFailingRebuild(t *testing.T) {
	g := testMesh(t)
	for _, tc := range []struct {
		name   string
		breaks func(rt *Runtime)
		want   string
	}{
		{"error", func(rt *Runtime) {
			tg := *rt.tg
			tg.Adj = append([]int32(nil), tg.Adj...)
			tg.Adj[len(tg.Adj)-2] = int32(g.N) + 5 // in the last row: rank 1's
			rt.tg = &tg
		}, "out of range"},
		{"panic", func(rt *Runtime) {
			tg := *rt.tg
			tg.Xadj = slices.Clone(tg.Xadj[:len(tg.Xadj)-2])
			rt.tg = &tg
		}, "inspector panicked"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			world := openWorld(t, 2)
			rts, errs := make([]*Runtime, 2), make([]error, 2)
			err := world.SPMD(nil, func(c *comm.Comm) error {
				rt, err := New(c, g, Config{Order: order.RCB})
				if err != nil {
					return err
				}
				rt.NewVector().SetByGlobal(initValue)
				if c.Rank() == 1 {
					tc.breaks(rt)
				}
				rts[c.Rank()] = rt
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			before := settledGoroutines()
			err = world.SPMD(nil, func(c *comm.Comm) error {
				_, errs[c.Rank()] = rts[c.Rank()].Remap([]float64{1, 3})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if errs[0] != nil {
				t.Fatalf("rank 0's remap failed: %v", errs[0])
			}
			if errs[1] == nil || !strings.Contains(errs[1].Error(), tc.want) {
				t.Fatalf("rank 1's remap returned %v, want an error containing %q", errs[1], tc.want)
			}
			if !goroutinesBackTo(before) {
				t.Fatalf("%d goroutines after the failed rebuild, %d before", runtime.NumGoroutine(), before)
			}
		})
	}
}
