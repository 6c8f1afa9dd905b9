package core

import (
	"fmt"
)

// ExchangeAll gathers the ghost sections of several vectors in one
// round, coalescing all vectors' values for a peer into a single
// message — the "message coalescing" optimization of paper Section 2.
// On a latency-dominated network this divides the per-iteration setup
// cost by the number of vectors (see BenchmarkCoalescing). Each
// message carries the vectors' segments back to back, vector-major.
func (rt *Runtime) ExchangeAll(vecs ...*Vector) error {
	if len(vecs) == 0 {
		return nil
	}
	if err := rt.collect("ExchangeAll", vecs); err != nil {
		return err
	}
	return rt.gather(rt.vecScratch)
}

// ScatterAddAll is the coalesced transpose of ExchangeAll: every
// vector's ghost contributions travel home in one message per peer and
// are added into the owned elements, in the same deterministic peer
// order as repeated ScatterAdd calls.
func (rt *Runtime) ScatterAddAll(vecs ...*Vector) error {
	if len(vecs) == 0 {
		return nil
	}
	if err := rt.collect("ScatterAddAll", vecs); err != nil {
		return err
	}
	return rt.scatter(rt.vecScratch)
}

// collect validates synchronous op op — on an active runtime, over its
// own vectors, none of them shared with a live op handle — and refreshes
// the reused [][]float64 view of the vectors' data.
func (rt *Runtime) collect(op string, vecs []*Vector) error {
	if rt.Parked() {
		return fmt.Errorf("core: %s on a parked runtime", op)
	}
	rt.vecScratch = rt.vecScratch[:0]
	for _, v := range vecs {
		if v.rt != rt {
			return fmt.Errorf("core: vector belongs to a different runtime")
		}
		rt.vecScratch = append(rt.vecScratch, v.Data)
	}
	return rt.checkLiveConflict(op, vecs)
}
