package loadbal

import (
	"fmt"
	"math"
)

// The paper estimates a processor's capability from the current
// phase's measured time per data item, and notes (Section 3.5,
// footnote) that "this could be extended to techniques that would
// predict the available computational resources based on more than one
// previous phase". Estimator implements that extension: a per-rank
// time series of measured rates is folded into a prediction by one of
// several policies.

// EstimatorKind selects the rate-prediction policy.
type EstimatorKind int

const (
	// EstimateLast predicts the next phase from the latest window
	// alone — the paper's baseline behaviour.
	EstimateLast EstimatorKind = iota
	// EstimateEWMA predicts with an exponentially weighted moving
	// average, damping one-off spikes (a brief cron job does not
	// trigger a remap).
	EstimateEWMA
	// EstimateMax predicts pessimistically with the slowest rate seen
	// in the window history, for environments where loads recur.
	EstimateMax
)

// Estimator turns a history of measured per-item rates into the rate
// used for the remap decision.
type Estimator struct {
	Kind EstimatorKind
	// Alpha is the EWMA smoothing factor in (0, 1]; higher tracks the
	// latest window more closely. Only used by EstimateEWMA.
	Alpha float64
	// WindowCap bounds the retained history (default 8).
	WindowCap int

	history [][]float64 // per update: rates indexed by rank
	ewma    []float64
}

// NewEstimator creates an estimator; zero values select the paper's
// last-window behaviour.
func NewEstimator(kind EstimatorKind, alpha float64) (*Estimator, error) {
	if kind == EstimateEWMA && !(alpha > 0 && alpha <= 1) { // NaN too
		return nil, fmt.Errorf("loadbal: EWMA alpha %g, want (0,1]", alpha)
	}
	return &Estimator{Kind: kind, Alpha: alpha, WindowCap: 8}, nil
}

// Clone returns a fresh estimator with the same policy and empty
// history. An Estimator is stateful and not safe for concurrent use,
// so each rank's balancer must own its own copy; the session layer
// clones the configured prototype once per rank.
func (e *Estimator) Clone() *Estimator {
	if e == nil {
		return nil
	}
	return &Estimator{Kind: e.Kind, Alpha: e.Alpha, WindowCap: e.WindowCap}
}

// Reset discards the accumulated history. The elastic layer calls it
// through Balancer.Reset on membership transitions: the history is
// indexed by active-set rank, and after a shrink or grow those indices
// name different workstations, so stale windows would feed one rank's
// past into another rank's prediction.
func (e *Estimator) Reset() {
	if e == nil {
		return
	}
	e.history = nil
	e.ewma = nil
}

// Observe records one check's gathered rates (indexed by rank; zero
// entries mean "no measurement this window").
func (e *Estimator) Observe(rates []float64) {
	snap := append([]float64(nil), rates...)
	e.history = append(e.history, snap)
	cap := e.WindowCap
	if cap <= 0 {
		cap = 8
	}
	if len(e.history) > cap {
		e.history = e.history[len(e.history)-cap:]
	}
	if e.Kind == EstimateEWMA {
		if e.ewma == nil {
			e.ewma = snap
			return
		}
		for i, r := range rates {
			if r <= 0 {
				continue // keep the previous estimate for silent ranks
			}
			if e.ewma[i] <= 0 {
				e.ewma[i] = r
				continue
			}
			e.ewma[i] = e.Alpha*r + (1-e.Alpha)*e.ewma[i]
		}
	}
}

// Predict returns the rate estimate per rank for the next phase. Ranks
// with no information anywhere in the history report zero (the
// controller substitutes the mean).
func (e *Estimator) Predict() []float64 {
	if len(e.history) == 0 {
		return nil
	}
	p := len(e.history[len(e.history)-1])
	out := make([]float64, p)
	switch e.Kind {
	case EstimateEWMA:
		copy(out, e.ewma)
	case EstimateMax:
		for _, window := range e.history {
			for i, r := range window {
				if i < p {
					out[i] = math.Max(out[i], r)
				}
			}
		}
	default: // EstimateLast: latest positive measurement per rank
		for _, window := range e.history {
			for i, r := range window {
				if i < p && r > 0 {
					out[i] = r
				}
			}
		}
	}
	return out
}
