package loadbal

import (
	"math"
	"testing"

	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/hetero"
	"stance/internal/redist"
)

func TestNewEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(EstimateEWMA, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := NewEstimator(EstimateEWMA, 1.5); err == nil {
		t.Error("alpha=1.5 accepted")
	}
	if _, err := NewEstimator(EstimateEWMA, math.NaN()); err == nil {
		t.Error("alpha=NaN accepted")
	}
	if _, err := NewEstimator(EstimateLast, 0); err != nil {
		t.Errorf("last-window estimator rejected: %v", err)
	}
}

func TestEstimateLastTracksLatest(t *testing.T) {
	e, err := NewEstimator(EstimateLast, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Predict() != nil {
		t.Error("empty estimator predicted something")
	}
	e.Observe([]float64{1, 2})
	e.Observe([]float64{3, 0}) // rank 1 silent this window
	got := e.Predict()
	if got[0] != 3 {
		t.Errorf("rank 0 = %v, want latest 3", got[0])
	}
	if got[1] != 2 {
		t.Errorf("rank 1 = %v, want last known 2", got[1])
	}
}

func TestEstimateEWMASmoothsSpikes(t *testing.T) {
	e, err := NewEstimator(EstimateEWMA, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e.Observe([]float64{1, 1})
	}
	// A single spike on rank 0.
	e.Observe([]float64{10, 1})
	got := e.Predict()
	if got[0] > 4 {
		t.Errorf("EWMA %v tracked the spike too closely", got[0])
	}
	if got[0] <= 1 {
		t.Errorf("EWMA %v ignored the spike entirely", got[0])
	}
	if math.Abs(got[1]-1) > 1e-9 {
		t.Errorf("steady rank drifted to %v", got[1])
	}
	// Silent windows keep the previous estimate.
	before := e.Predict()[0]
	e.Observe([]float64{0, 1})
	if e.Predict()[0] != before {
		t.Error("silent window changed the EWMA")
	}
}

func TestEstimateMaxIsPessimistic(t *testing.T) {
	e, err := NewEstimator(EstimateMax, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Observe([]float64{5, 1})
	e.Observe([]float64{2, 3})
	got := e.Predict()
	if got[0] != 5 || got[1] != 3 {
		t.Errorf("Predict = %v, want [5 3]", got)
	}
}

func TestEstimatorWindowCap(t *testing.T) {
	e, err := NewEstimator(EstimateMax, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.WindowCap = 2
	e.Observe([]float64{100})
	e.Observe([]float64{1})
	e.Observe([]float64{2})
	// The 100 observation has aged out of the 2-window history.
	if got := e.Predict(); got[0] != 2 {
		t.Errorf("Predict = %v, want 2 after the spike aged out", got)
	}
}

// TestEstimatorDampensTransientLoad shows the EWMA extension doing its
// job end to end: a load that vanished before the check no longer
// dominates the estimate the way the last window would.
func TestEstimatorDampensTransientLoad(t *testing.T) {
	g := testMesh(t)
	// Load active only for iterations 4..8 of 8: the last window is
	// polluted, but the longer history is clean.
	env := hetero.Uniform(2)
	env.Loads = []hetero.Load{{Rank: 0, Factor: 8, FromIter: 6, UntilIter: 8}}
	var lastW, ewmaW float64
	simSPMD(t, 2, func(c *comm.Comm) error {
		rt, err := core.New(c, g, core.Config{})
		if err != nil {
			return err
		}
		s, err := virtualSolver(rt, env, 2)
		if err != nil {
			return err
		}
		est, err := NewEstimator(EstimateEWMA, 0.3)
		if err != nil {
			return err
		}
		huge := redist.CostModel{PerMessage: 1e6, PerByte: 1}
		bLast, err := New(rt, Config{Horizon: 1, CostModel: huge})
		if err != nil {
			return err
		}
		bEWMA, err := New(rt, Config{Horizon: 1, Estimator: est, CostModel: huge})
		if err != nil {
			return err
		}
		// Checks every 2 iterations; huge cost model means no remap is
		// ever performed, we only inspect the weight estimates.
		for chunk := 0; chunk < 4; chunk++ {
			if err := s.Run(2, nil); err != nil {
				return err
			}
			tm := s.TakeTimings()
			rep := Report{RatePerItem: tm.RatePerItem(), Items: tm.Items}
			dLast, err := bLast.Check(rep)
			if err != nil {
				return err
			}
			dEWMA, err := bEWMA.Check(rep)
			if err != nil {
				return err
			}
			if c.Rank() == 0 && chunk == 3 {
				lastW = dLast.NewWeights[0] / dLast.NewWeights[1]
				ewmaW = dEWMA.NewWeights[0] / dEWMA.NewWeights[1]
			}
		}
		return nil
	})
	// The last-window estimate sees rank 0 as ~8x slower; the EWMA
	// estimate is much closer to parity.
	if !(ewmaW > lastW) {
		t.Errorf("EWMA weight ratio %.3f not gentler than last-window %.3f", ewmaW, lastW)
	}
}
