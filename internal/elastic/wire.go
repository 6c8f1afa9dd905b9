package elastic

import (
	"fmt"

	"stance/internal/comm"
	"stance/internal/partition"
)

// Control payloads are float64 vectors (the codec every other protocol
// in the library uses); ranks, iterations and interval offsets are
// integers well below 2^53, so the round trip is exact. An epoch
// proposal carries both layouts as (starts, arrangement) pairs — the
// replicated translation state of paper Figure 3, memory proportional
// to the number of processors — so an admitted rank that was parked
// when the outgoing layout was cut can reconstruct it exactly.
//
//	[0] opcode
//	opEpoch only:
//	[1] iter  [2] next epoch
//	[3] kOld, kOld old active world ranks,
//	    kOld+1 old starts, kOld old arrangement
//	[.] kNew, kNew new active world ranks,
//	    kNew+1 new starts, kNew new arrangement

func encodeOp(op int) []byte {
	return comm.F64sToBytes([]float64{float64(op)})
}

func encodeProposal(p *Proposal) []byte {
	vals := []float64{opEpoch, float64(p.Iter), float64(p.Next.Epoch)}
	vals = appendSide(vals, p.OldActive, p.Old)
	vals = appendSide(vals, p.Next.Active, p.New)
	return comm.F64sToBytes(vals)
}

func appendSide(vals []float64, active []int, l *partition.Layout) []float64 {
	vals = append(vals, float64(len(active)))
	for _, r := range active {
		vals = append(vals, float64(r))
	}
	for _, s := range l.Starts() {
		vals = append(vals, float64(s))
	}
	for _, a := range l.Arrangement() {
		vals = append(vals, float64(a))
	}
	return vals
}

// decodeVerdict parses a control payload: nil for opContinue and
// opRunEnd, the Proposal for opEpoch.
func decodeVerdict(data []byte) (*Proposal, error) {
	vals, err := comm.BytesToF64s(data)
	if err != nil {
		return nil, fmt.Errorf("elastic: %w", err)
	}
	if len(vals) < 1 {
		return nil, fmt.Errorf("elastic: empty verdict")
	}
	switch int(vals[0]) {
	case opContinue, opRunEnd:
		return nil, nil
	case opEpoch:
	default:
		return nil, fmt.Errorf("elastic: unknown verdict opcode %g", vals[0])
	}
	if len(vals) < 4 {
		return nil, fmt.Errorf("elastic: truncated proposal of %d values", len(vals))
	}
	p := &Proposal{Iter: int(vals[1])}
	epoch := int(vals[2])
	rest := vals[3:]
	var oldLayout, newLayout *partition.Layout
	p.OldActive, oldLayout, rest, err = decodeSide(rest)
	if err != nil {
		return nil, err
	}
	var newActive []int
	newActive, newLayout, rest, err = decodeSide(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("elastic: %d trailing values in proposal", len(rest))
	}
	p.Old, p.New = oldLayout, newLayout
	p.Next = Membership{Epoch: epoch, Active: newActive}
	return p, nil
}

func decodeSide(vals []float64) (active []int, l *partition.Layout, rest []float64, err error) {
	if len(vals) < 1 {
		return nil, nil, nil, fmt.Errorf("elastic: truncated proposal side")
	}
	k := int(vals[0])
	// k ranks + (k+1) starts + k arrangement entries after the count,
	// tested by division: 1+3*k+1 overflows for a hostile k.
	if k <= 0 || k > (len(vals)-2)/3 {
		return nil, nil, nil, fmt.Errorf("elastic: malformed proposal side of %d entries", k)
	}
	vals = vals[1:]
	active = make([]int, k)
	for i := range active {
		active[i] = int(vals[i])
	}
	starts := make([]int64, k+1)
	for i := range starts {
		starts[i] = int64(vals[k+i])
	}
	arr := make([]int, k)
	for i := range arr {
		arr[i] = int(vals[2*k+1+i])
	}
	l, err = partition.NewFromStarts(starts, arr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("elastic: %w", err)
	}
	return active, l, vals[3*k+1:], nil
}
