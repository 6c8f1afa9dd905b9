package loadbal

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/ctl"
	"stance/internal/graph"
	"stance/internal/hetero"
	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/redist"
	"stance/internal/solver"
	"stance/internal/vtime"
)

func testMesh(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := mesh.Honeycomb(25, 40)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// simSPMD runs f on every rank of a p-rank world on a simulated clock
// over a priced network. Together with virtualSolver it makes every
// rate a balancer sees, and every duration it measures, an exact virtual
// quantity: what these tests assert no longer depends on how a
// microsecond kernel happened to be scheduled on a loaded machine.
func simSPMD(t *testing.T, p int, f func(c *comm.Comm) error) {
	t.Helper()
	w, err := comm.Open("inproc", p, comm.TransportOptions{Clock: vtime.NewSim(), Model: comm.Ethernet(0.01)})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.SPMD(nil, f); err != nil {
		t.Fatal(err)
	}
}

// virtualSolver is solver.New with compute charged to the clock instead
// of spun: an element costs exactly 5µs × workRep × the rank's load
// factor.
func virtualSolver(rt *core.Runtime, env *hetero.Env, workRep int) (*solver.Solver, error) {
	s, err := solver.New(rt, env, workRep)
	if err == nil {
		s.SetVirtualCompute(5 * time.Microsecond)
	}
	return s, err
}

// runScenario runs the solver under env for warmup iterations, checks
// once, and returns the decisions (indexed by rank) plus the final
// layout sizes.
func runScenario(t *testing.T, env *hetero.Env, cfg Config, warmup int) ([]Decision, []int64) {
	t.Helper()
	g := testMesh(t)
	p := env.P()
	decisions := make([]Decision, p)
	sizes := make([]int64, p)
	simSPMD(t, p, func(c *comm.Comm) error {
		rt, err := core.New(c, g, core.Config{Order: order.RCB})
		if err != nil {
			return err
		}
		s, err := virtualSolver(rt, env, 2)
		if err != nil {
			return err
		}
		b, err := New(rt, cfg)
		if err != nil {
			return err
		}
		if err := s.Run(warmup, nil); err != nil {
			return err
		}
		tm := s.TakeTimings()
		d, err := b.Check(Report{RatePerItem: tm.RatePerItem(), Items: tm.Items})
		if err != nil {
			return err
		}
		decisions[c.Rank()] = d
		if c.Rank() == 0 {
			for q := 0; q < p; q++ {
				sizes[q] = rt.Layout().Size(q)
			}
		}
		return nil
	})
	return decisions, sizes
}

func decisionsEqual(a, b Decision) error {
	if a.Remapped != b.Remapped {
		return fmt.Errorf("Remapped %v vs %v", a.Remapped, b.Remapped)
	}
	if a.PredictedCurrent != b.PredictedCurrent || a.PredictedNew != b.PredictedNew ||
		a.EstimatedRemapCost != b.EstimatedRemapCost {
		return fmt.Errorf("predictions (%g,%g,%g) vs (%g,%g,%g)",
			a.PredictedCurrent, a.PredictedNew, a.EstimatedRemapCost,
			b.PredictedCurrent, b.PredictedNew, b.EstimatedRemapCost)
	}
	if !slices.Equal(a.NewWeights, b.NewWeights) {
		return fmt.Errorf("weights %v vs %v", a.NewWeights, b.NewWeights)
	}
	return nil
}

// TestExchangeModesBitExact: rank 0's verdict is the only decision, so
// under heterogeneous speeds every rank holds the identical decision —
// same remap verdict, same weights, same predictions — and the
// identical resulting layout.
func TestExchangeModesBitExact(t *testing.T) {
	g := testMesh(t)
	const p = 4
	decisions := make([]Decision, p)
	sizes := make([][]int64, p)
	simSPMD(t, p, func(c *comm.Comm) error {
		rt, err := core.New(c, g, core.Config{Order: order.RCB})
		if err != nil {
			return err
		}
		b, err := New(rt, Config{})
		if err != nil {
			return err
		}
		// Rank r runs (r+1)× slower than rank 0 — the heterogeneous
		// speeds of the paper's Table 4 environments.
		d, err := b.Check(Report{
			RatePerItem: float64(c.Rank()+1) * 1e-6,
			Items:       rt.Layout().Size(c.Rank()),
		})
		if err != nil {
			return err
		}
		decisions[c.Rank()] = d
		for q := range p {
			sizes[c.Rank()] = append(sizes[c.Rank()], rt.Layout().Size(q))
		}
		return nil
	})
	if !decisions[0].Remapped {
		t.Error("heterogeneous speeds should have triggered a remap in this scenario")
	}
	for r := 1; r < p; r++ {
		if err := decisionsEqual(decisions[0], decisions[r]); err != nil {
			t.Errorf("rank %d decision diverges from rank 0: %v", r, err)
		}
		if !slices.Equal(sizes[0], sizes[r]) {
			t.Errorf("rank %d holds layout sizes %v, rank 0 %v", r, sizes[r], sizes[0])
		}
	}
}

func TestImbalanceTriggersRemap(t *testing.T) {
	// Workstation 0 carries a constant factor-3 competing load (the
	// paper's Table 5 setup): the controller must remap, and the new
	// layout must give workstation 0 roughly a third of a fair share.
	env := hetero.PaperAdaptive(4, 3)
	decisions, sizes := runScenario(t, env, Config{Horizon: 490}, 10)
	for rank, d := range decisions {
		if !d.Remapped {
			t.Fatalf("rank %d: no remap despite 3x imbalance", rank)
		}
		if d.PredictedNew >= d.PredictedCurrent {
			t.Errorf("rank %d: predicted no improvement (%v >= %v)",
				rank, d.PredictedNew, d.PredictedCurrent)
		}
		if d.CheckTime <= 0 {
			t.Errorf("rank %d: check time not measured", rank)
		}
		if d.RemapTime <= 0 {
			t.Errorf("rank %d: remap time not measured", rank)
		}
	}
	// All ranks must agree on the decision.
	for rank := 1; rank < len(decisions); rank++ {
		if decisions[rank].Remapped != decisions[0].Remapped {
			t.Fatal("ranks disagree on the decision")
		}
	}
	fair := int64(0)
	for _, s := range sizes {
		fair += s
	}
	fair /= int64(len(sizes))
	if sizes[0] >= fair {
		t.Errorf("loaded workstation still owns %d of fair share %d", sizes[0], fair)
	}
	// The loaded workstation should hold roughly fair/3 x 4/3... more
	// precisely weights ~ (1/3,1,1,1): share ~ (1/3)/(10/3) = 10%.
	total := 4 * fair
	lo, hi := total/20, total/5 // 5%..20% brackets the 10% target
	if sizes[0] < lo || sizes[0] > hi {
		t.Errorf("loaded workstation owns %d of %d, want in [%d,%d]", sizes[0], total, lo, hi)
	}
}

func TestBalancedEnvironmentDoesNotRemap(t *testing.T) {
	env := hetero.Uniform(3)
	// A realistic cost model: any remap costs something, and a
	// balanced run cannot win anything back.
	cfg := Config{
		Horizon:   10,
		CostModel: redist.CostModel{PerMessage: 1e-3, PerByte: 1e-6},
	}
	decisions, _ := runScenario(t, env, cfg, 8)
	for rank, d := range decisions {
		if d.Remapped {
			t.Errorf("rank %d: remapped a balanced environment (gain %v vs cost %v)",
				rank, d.PredictedCurrent-d.PredictedNew, d.EstimatedRemapCost)
		}
	}
}

func TestShortHorizonSuppressesRemap(t *testing.T) {
	// Same 3x imbalance, but the remap only has 1 iteration to pay off
	// against an enormous modeled cost: the controller must decline.
	env := hetero.PaperAdaptive(3, 3)
	cfg := Config{
		Horizon:      1,
		CostModel:    redist.CostModel{PerMessage: 10, PerByte: 1e-3},
		SafetyFactor: 1,
	}
	decisions, _ := runScenario(t, env, cfg, 6)
	for rank, d := range decisions {
		if d.Remapped {
			t.Errorf("rank %d: remapped despite prohibitive cost", rank)
		}
		if d.EstimatedRemapCost <= 0 {
			t.Errorf("rank %d: zero cost estimate under a priced model", rank)
		}
	}
}

func TestZeroInformationKeepsLayout(t *testing.T) {
	g := testMesh(t)
	world, err := comm.Open("inproc", 2, comm.TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := core.New(c, g, core.Config{})
		if err != nil {
			return err
		}
		b, err := New(rt, Config{})
		if err != nil {
			return err
		}
		d, err := b.Check(Report{}) // no measurements at all
		if err != nil {
			return err
		}
		if d.Remapped {
			return fmt.Errorf("remapped with zero information")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPartialInformationUsesMeanRate(t *testing.T) {
	// One rank reports a rate, the other reports nothing: the missing
	// rank is assumed average, so weights come out equal and no remap
	// happens under a priced model.
	g := testMesh(t)
	world, err := comm.Open("inproc", 2, comm.TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	err = world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := core.New(c, g, core.Config{})
		if err != nil {
			return err
		}
		b, err := New(rt, Config{CostModel: redist.CostModel{PerMessage: 1e-3}})
		if err != nil {
			return err
		}
		rep := Report{}
		if c.Rank() == 0 {
			rep = Report{RatePerItem: 1e-6, Items: 1000}
		}
		d, err := b.Check(rep)
		if err != nil {
			return err
		}
		if d.Remapped {
			return fmt.Errorf("remapped on partial information")
		}
		if len(d.NewWeights) != 2 {
			return fmt.Errorf("weights = %v", d.NewWeights)
		}
		if d.NewWeights[0] != d.NewWeights[1] {
			return fmt.Errorf("missing rank not assumed average: %v", d.NewWeights)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDecisionCarriesTheLayout: a decision to remap carries the layout
// the arrangement search chose, and Apply moves onto the layout it is
// handed without searching: given an identity-arranged cut as if the
// controller had chosen it, every rank ends on exactly that layout. A
// nil decision and a remap decision without a layout are errors.
func TestDecisionCarriesTheLayout(t *testing.T) {
	g := testMesh(t)
	simSPMD(t, 3, func(c *comm.Comm) error {
		rt, err := core.New(c, g, core.Config{Order: order.RCB})
		if err != nil {
			return err
		}
		b, err := New(rt, Config{})
		if err != nil {
			return err
		}
		d, err := b.Decide([]float64{3e-6, 1e-6, 1e-6}, 0)
		if err != nil {
			return err
		}
		chosen, err := rt.ChooseLayout(d.Weights)
		if err != nil || !d.Remap || d.Layout == nil || !d.Layout.Equal(chosen) {
			return fmt.Errorf("decision %+v, want a remap onto the search's %v (%v)", d, chosen, err)
		}
		weights := []float64{1, 2, 3}
		for _, v := range []*ctl.Decision{nil, {Remap: true, Weights: weights}} {
			if _, err := b.Apply(v, rt.Clock().Now()); err == nil {
				return fmt.Errorf("Apply accepted %+v", v)
			}
		}
		l, err := rt.CutLayout(weights)
		if err != nil {
			return err
		}
		got, err := b.Apply(&ctl.Decision{Remap: true, Weights: weights, Layout: l}, rt.Clock().Now())
		if err != nil {
			return err
		}
		if !got.Remapped || !rt.Layout().Equal(l) {
			return fmt.Errorf("rank %d: Apply reported %+v and runs on %v, want the carried %v", c.Rank(), got, rt.Layout(), l)
		}
		return nil
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil runtime accepted")
	}
}

// End-to-end: with the paper's protocol (run 10, check, run the rest)
// the balanced run must beat the unbalanced one substantially. Runs on
// the simulated clock with virtualized compute, so the comparison is
// between exact virtual durations — the wall-clock version of this
// test had to hide behind -short on loaded machines.
func TestAdaptiveRunBeatsStaticUnderLoad(t *testing.T) {
	g, err := mesh.Honeycomb(60, 80)
	if err != nil {
		t.Fatal(err)
	}
	env := hetero.PaperAdaptive(3, 3)
	const totalIters = 40
	run := func(balance bool) time.Duration {
		clk := vtime.NewSim()
		w, err := comm.Open("inproc", 3, comm.TransportOptions{Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		var elapsed time.Duration
		err = w.SPMD(nil, func(c *comm.Comm) error {
			rt, err := core.New(c, g, core.Config{Order: order.RCB})
			if err != nil {
				return err
			}
			s, err := solver.New(rt, env, 1)
			if err != nil {
				return err
			}
			s.SetVirtualCompute(5 * time.Microsecond)
			b, err := New(rt, Config{Horizon: totalIters - 10})
			if err != nil {
				return err
			}
			if err := c.Barrier(0x777); err != nil {
				return err
			}
			start := clk.Now()
			if err := s.Run(10, nil); err != nil {
				return err
			}
			if balance {
				tm := s.TakeTimings()
				if _, err := b.Check(Report{RatePerItem: tm.RatePerItem(), Items: tm.Items}); err != nil {
					return err
				}
			}
			if err := s.Run(totalIters-10, nil); err != nil {
				return err
			}
			if err := c.Barrier(0x778); err != nil {
				return err
			}
			if c.Rank() == 0 {
				elapsed = clk.Now().Sub(start)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	static := run(false)
	adaptive := run(true)
	if adaptive >= static {
		t.Errorf("load balancing did not help: %v with vs %v without", adaptive, static)
	}
}
