// Package loadbal implements the adaptive load balancing of paper
// Section 3.5: each processor monitors its own load (average compute
// time per data item), ships it to a centralized controller (rank 0),
// and the controller decides whether remapping pays — remapping is
// profitable when the predicted per-phase improvement over the
// decision horizon offsets the estimated cost of moving the data and
// rebuilding the communication schedule.
package loadbal

import (
	"fmt"
	"time"

	"stance/internal/core"
	"stance/internal/ctl"
	"stance/internal/partition"
	"stance/internal/redist"
)

// Config parameterizes the balancer.
type Config struct {
	// Horizon is the number of future iterations a remap is assumed to
	// benefit; the paper checks every 10 iterations and the remap
	// serves until the next check, so Horizon defaults to CheckEvery.
	Horizon int
	// SafetyFactor inflates the estimated remap cost before the
	// profitability comparison (default 1: the paper's plain
	// comparison).
	SafetyFactor float64
	// CostModel estimates redistribution time from the data moved and
	// messages generated. The zero model prices redistribution at zero
	// and makes every imbalance remap-worthy.
	CostModel redist.CostModel
	// Estimator predicts next-phase rates from the measurement
	// history (nil: the paper's last-window behaviour). See
	// EstimatorKind for the policies.
	Estimator *Estimator
}

// Report is one rank's load report: the boundary iteration, which
// every rank's must match, and the measured compute seconds per data
// item over the window since the last check. Items, the window's item
// count, is not shipped: the controller never reads it.
type Report struct {
	Iter        int
	RatePerItem float64
	Items       int64
}

// Decision is the controller's verdict, identical on every rank.
type Decision struct {
	// Remapped reports whether a remap was performed.
	Remapped bool `json:"remapped"`
	// NewWeights are the capability estimates (1/rate, normalized)
	// that the remap used, or would have used.
	NewWeights []float64 `json:"new_weights"`
	// PredictedCurrent and PredictedNew are the controller's per-phase
	// time predictions for the current and proposed layouts, in
	// seconds (hence the _s JSON suffix).
	PredictedCurrent float64 `json:"predicted_current_s"`
	PredictedNew     float64 `json:"predicted_new_s"`
	// EstimatedRemapCost is the modeled redistribution + inspector
	// cost in seconds.
	EstimatedRemapCost float64 `json:"estimated_remap_cost_s"`
	// CheckTime is the cost of the check itself (report, decide,
	// broadcast) on this rank.
	CheckTime time.Duration `json:"check_ns"`
	// RemapTime is the measured remap cost on this rank (zero when no
	// remap happened).
	RemapTime time.Duration `json:"remap_ns"`
}

// Balancer drives the periodic load-balance check for one rank.
type Balancer struct {
	rt  *core.Runtime
	cfg Config
}

// New creates a balancer bound to a runtime.
func New(rt *core.Runtime, cfg Config) (*Balancer, error) {
	if rt == nil {
		return nil, fmt.Errorf("loadbal: nil runtime")
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 10
	}
	if cfg.SafetyFactor <= 0 {
		cfg.SafetyFactor = 1
	}
	return &Balancer{rt: rt, cfg: cfg}, nil
}

// Reset clears the measurement history after a membership transition:
// the active world the balancer reads through its runtime has been
// renumbered, a parked workstation contributes zero capability (it is
// simply absent from the new world), and the transition itself already
// forced a fresh cut of the list, so the next check starts from a
// clean slate instead of mixing windows from two different rank
// numberings.
func (b *Balancer) Reset() {
	b.cfg.Estimator.Reset()
}

// Check is the collective load-balance check, composed of the steps
// the session's boundary round runs: every rank reports to rank 0
// (ctl.Tag), rank 0 runs Decide and answers with a continue verdict
// carrying the decision, then Apply on every rank. The caller supplies
// the window measurement (typically solver.Timings since the last
// check).
func (b *Balancer) Check(rep Report) (Decision, error) {
	c := b.rt.Comm()
	start := b.rt.Clock().Now()
	// The report carries the rank's last inspector time alongside the
	// measurement: rank 0 prices the schedule rebuild with the world's
	// slowest.
	payload := ctl.EncodeReport(ctl.Report{
		Iter: rep.Iter, Rate: rep.RatePerItem, Inspector: b.rt.LastInspectorTime().Seconds(),
	})
	reports, err := c.Gather(0, ctl.Tag, payload)
	if err != nil {
		return Decision{}, err
	}
	var packed []byte
	if c.Rank() == 0 {
		rates, inspector, err := ctl.DecodeReports(reports, rep.Iter)
		if err != nil {
			return Decision{}, err
		}
		d, err := b.Decide(rates, inspector)
		if err != nil {
			return Decision{}, err
		}
		packed = ctl.EncodeVerdict(ctl.Verdict{Decision: &d})
	}
	if packed, err = c.Bcast(0, ctl.Tag, packed); err != nil {
		return Decision{}, err
	}
	v, err := ctl.DecodeVerdict(packed, c.Size())
	if err != nil {
		return Decision{}, err
	}
	return b.Apply(v.Decision, start)
}

// Apply is every rank's remap step on the controller's decision: it
// records the check's cost since start and, when the decision says so,
// remaps onto the layout it carries, searching nothing. A nil decision
// (a verdict that carried none), or a remap without a layout, is an error.
func (b *Balancer) Apply(v *ctl.Decision, start time.Time) (Decision, error) {
	if v == nil || v.Remap && v.Layout == nil {
		return Decision{}, fmt.Errorf("loadbal: the verdict carries no balance decision or no remap layout")
	}
	clock := b.rt.Clock()
	d := Decision{
		Remapped:           v.Remap,
		PredictedCurrent:   v.Current,
		PredictedNew:       v.New,
		EstimatedRemapCost: v.Cost,
		NewWeights:         v.Weights,
		CheckTime:          clock.Now().Sub(start),
	}
	if d.Remapped {
		t0 := clock.Now()
		if _, err := b.rt.RemapTo(v.Layout); err != nil {
			return Decision{}, err
		}
		d.RemapTime = clock.Now().Sub(t0)
	}
	return d, nil
}

// Decide runs on the controller, rank 0: estimate capabilities from
// measured rates, indexed by rank, predict the next phase under
// current and proposed layouts, price the redistribution, and compare.
// inspector is the gathered worst-case schedule-rebuild time, the
// world's slowest rather than rank 0's own. A remap decision carries
// its layout (Runtime.ChooseLayout), so the arrangement search runs
// once per world, where Decide does.
func (b *Balancer) Decide(rates []float64, inspector float64) (ctl.Decision, error) {
	if b.cfg.Estimator != nil {
		b.cfg.Estimator.Observe(rates)
		rates = b.cfg.Estimator.Predict()
	}
	layout := b.rt.Layout()
	p := layout.P()

	// A rank that measured nothing (no items yet) inherits the mean
	// positive rate, a neutral estimate.
	meanRate := 0.0
	nPos := 0
	for _, r := range rates {
		if r > 0 {
			meanRate += r
			nPos++
		}
	}
	if nPos == 0 {
		// No information at all: keep the current layout.
		weights := make([]float64, p)
		for i := range weights {
			weights[i] = 1
		}
		return ctl.Decision{Weights: weights}, nil
	}
	meanRate /= float64(nPos)
	eff := make([]float64, p) // rates, the mean standing in for the unmeasured
	weights := make([]float64, p)
	for i, r := range rates {
		if r <= 0 {
			r = meanRate
		}
		eff[i], weights[i] = r, 1/r
	}

	// Predicted per-phase time = max_i items_i * rate_i (the paper's
	// idle-time minimization target).
	phase := func(size func(i int) int64) float64 {
		worst := 0.0
		for i, r := range eff {
			if t := float64(size(i)) * r; t > worst {
				worst = t
			}
		}
		return worst
	}
	predCur := phase(layout.Size)
	newSizes, err := partition.SizesFromWeights(layout.N(), weights)
	if err != nil {
		return ctl.Decision{}, err
	}
	predNew := phase(func(i int) int64 { return newSizes[i] })

	// Price the redistribution against the proposed layout (identity
	// arrangement bound; MCR only lowers it) plus the gathered
	// inspector time as the schedule-rebuild estimate.
	cand, err := partition.NewFromSizes(newSizes, layout.Arrangement())
	if err != nil {
		return ctl.Decision{}, err
	}
	moveCost, err := b.cfg.CostModel.Estimate(layout, cand)
	if err != nil {
		return ctl.Decision{}, err
	}
	estCost := (moveCost + inspector) * b.cfg.SafetyFactor

	gain := (predCur - predNew) * float64(b.cfg.Horizon)
	d := ctl.Decision{
		Remap:   gain > estCost && predNew < predCur,
		Current: predCur, New: predNew, Cost: estCost,
		Weights: weights,
	}
	if d.Remap {
		d.Layout, err = b.rt.ChooseLayout(weights)
	}
	return d, err
}
