package stance_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"stance"
)

// TestFacadeEndToEnd exercises the public API the way the README's
// quickstart does: mesh, world, runtime, solver, balancer — without
// touching internal packages.
func TestFacadeEndToEnd(t *testing.T) {
	g, err := stance.Honeycomb(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Simulated clock and virtual compute: the 2.5x imbalance the
	// balancer must see is exact, not a wall-clock reading of
	// microsecond kernels.
	world, err := stance.OpenWorld("inproc", 3, stance.TransportOptions{Clock: stance.NewSimClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()

	env := stance.LoadedEnv(3, 2.5)
	err = world.SPMD(context.Background(), func(c *stance.Comm) error {
		rt, err := stance.New(c, g, stance.Config{Order: stance.RCB})
		if err != nil {
			return err
		}
		s, err := stance.NewSolver(rt, env, 2)
		if err != nil {
			return err
		}
		s.SetVirtualCompute(time.Microsecond)
		est, err := stance.NewEstimator(stance.EstimateEWMA, 0.5)
		if err != nil {
			return err
		}
		bal, err := stance.NewBalancer(rt, stance.BalancerConfig{
			Horizon:   50,
			Estimator: est,
		})
		if err != nil {
			return err
		}
		if err := s.Run(8, nil); err != nil {
			return err
		}
		tm := s.TakeTimings()
		d, err := bal.Check(stance.Report{RatePerItem: tm.RatePerItem(), Items: tm.Items})
		if err != nil {
			return err
		}
		if !d.Remapped {
			return fmt.Errorf("rank %d: 2.5x imbalance not rebalanced", c.Rank())
		}
		if err := s.Run(4, nil); err != nil {
			return err
		}
		y, err := s.GatherResult(0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && len(y) != g.N {
			return fmt.Errorf("gathered %d values for %d vertices", len(y), g.N)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeOrderings(t *testing.T) {
	if len(stance.Orderings()) < 6 {
		t.Errorf("Orderings() = %v", stance.Orderings())
	}
	for _, name := range stance.Orderings() {
		if _, err := stance.OrderByName(name); err != nil {
			t.Errorf("OrderByName(%q): %v", name, err)
		}
	}
	if _, err := stance.OrderByName("bogus"); err == nil {
		t.Error("bogus ordering accepted")
	}
}

func TestFacadeMeshGenerators(t *testing.T) {
	pm := stance.PaperMesh()
	if pm.N != 30269 {
		t.Errorf("PaperMesh has %d vertices", pm.N)
	}
	if _, err := stance.GridMesh(5, 5, 0.1, 1); err != nil {
		t.Error(err)
	}
	if _, err := stance.AnnulusMesh(3, 10); err != nil {
		t.Error(err)
	}
	if _, err := stance.RandomGeometric(50, 0.2, 1); err != nil {
		t.Error(err)
	}
	if _, err := stance.GraphFromEdges(2, []stance.Edge{{U: 0, V: 1}}, nil); err != nil {
		t.Error(err)
	}
}

func TestFacadeEthernetModel(t *testing.T) {
	m := stance.Ethernet(1)
	if m.Latency <= 0 || m.Bandwidth <= 0 || !m.Multicast {
		t.Errorf("Ethernet model %+v", m)
	}
}

func TestFacadeTCP(t *testing.T) {
	g, err := stance.Honeycomb(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	world, err := stance.OpenWorld("tcp", 2, stance.TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	err = world.SPMD(context.Background(), func(c *stance.Comm) error {
		rt, err := stance.New(c, g, stance.Config{})
		if err != nil {
			return err
		}
		s, err := stance.NewSolver(rt, nil, 1)
		if err != nil {
			return err
		}
		return s.Run(3, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}
