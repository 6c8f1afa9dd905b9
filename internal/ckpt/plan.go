package ckpt

import (
	"fmt"

	"stance/internal/comm"
	"stance/internal/partition"
)

// Gate verdict opcodes, multicast by the coordinator on TagCtl after
// collecting heartbeats. Like the elastic control protocol, verdict
// payloads are float64 vectors (integers are exact up to 2^53) so they
// ride the same wire codecs as everything else.
const (
	opAlive   = 0 // every member answered: continue
	opRecover = 1 // dead ranks detected: recovery plan follows
	opAbort   = 2 // dead ranks detected but unrecoverable: fail loudly
)

// Plan is the coordinator's recovery verdict: which ranks died, the
// surviving active set, and the layouts to move between. Every
// survivor executes it deterministically.
type Plan struct {
	// Iter is the gate iteration at which the failure was detected.
	Iter int
	// CkptIter is the checkpoint iteration to restore, or -1 when no
	// checkpoint existed yet and survivors restart from initial
	// conditions.
	CkptIter int
	// Dead lists the world ranks that missed the gate, ascending.
	Dead []int
	// OldActive is the active set the last checkpoint was taken
	// under (identical to the set at detection).
	OldActive []int
	// NewActive is OldActive minus Dead.
	NewActive []int
	// Old is the layout at the checkpoint; New is the re-cut layout
	// over the survivors.
	Old, New *partition.Layout
}

// EncodeAlive returns the all-alive verdict payload.
func EncodeAlive() []byte {
	return comm.F64sToBytes([]float64{opAlive})
}

// EncodeAbort returns the unrecoverable verdict payload naming the
// dead ranks.
func EncodeAbort(dead []int) []byte {
	vals := make([]float64, 0, 2+len(dead))
	vals = append(vals, opAbort, float64(len(dead)))
	for _, d := range dead {
		vals = append(vals, float64(d))
	}
	return comm.F64sToBytes(vals)
}

// EncodePlan returns the recovery verdict payload.
func EncodePlan(p *Plan) []byte {
	vals := make([]float64, 0, 8+len(p.Dead)+2*len(p.OldActive)+2*len(p.NewActive)+3*(p.Old.P()+p.New.P()))
	vals = append(vals, opRecover, float64(p.Iter), float64(p.CkptIter))
	vals = appendRanks(vals, p.Dead)
	vals = appendRanks(vals, p.OldActive)
	vals = appendRanks(vals, p.NewActive)
	vals = appendLayout(vals, p.Old)
	vals = appendLayout(vals, p.New)
	return comm.F64sToBytes(vals)
}

// DecodeVerdict decodes a TagCtl payload. It returns (nil, nil) for an
// all-alive verdict, a plan for a recovery verdict, and an error
// wrapping ErrUnrecoverable for an abort verdict or any malformed
// payload: a member that cannot read the coordinator's verdict has no
// consistent way to continue.
func DecodeVerdict(data []byte) (*Plan, error) {
	vals, err := comm.BytesToF64s(data)
	if err != nil {
		return nil, malformed("%v", err)
	}
	if len(vals) == 0 {
		return nil, malformed("empty")
	}
	switch int(vals[0]) {
	case opAlive:
		return nil, nil
	case opAbort:
		dead, _, err := decodeRanks(vals[1:])
		if err != nil {
			return nil, malformed("abort dead set: %v", err)
		}
		return nil, fmt.Errorf("ckpt: ranks %v died and their checkpoints are lost: %w", dead, ErrUnrecoverable)
	case opRecover:
		p := &Plan{}
		if len(vals) < 3 {
			return nil, malformed("truncated recovery verdict")
		}
		p.Iter = int(vals[1])
		p.CkptIter = int(vals[2])
		rest := vals[3:]
		if p.Dead, rest, err = decodeRanks(rest); err != nil {
			return nil, malformed("dead set: %v", err)
		}
		if p.OldActive, rest, err = decodeRanks(rest); err != nil {
			return nil, malformed("old active set: %v", err)
		}
		if p.NewActive, rest, err = decodeRanks(rest); err != nil {
			return nil, malformed("new active set: %v", err)
		}
		if p.Old, rest, err = decodeLayout(rest); err != nil {
			return nil, malformed("old layout: %v", err)
		}
		if p.New, rest, err = decodeLayout(rest); err != nil {
			return nil, malformed("new layout: %v", err)
		}
		if len(rest) != 0 {
			return nil, malformed("%d trailing values after recovery verdict", len(rest))
		}
		return p, nil
	default:
		return nil, malformed("unknown opcode %v", vals[0])
	}
}

// malformed is DecodeVerdict's error for a payload it cannot read.
func malformed(format string, args ...any) error {
	return fmt.Errorf("ckpt: malformed verdict: %s: %w", fmt.Sprintf(format, args...), ErrUnrecoverable)
}

func appendRanks(vals []float64, ranks []int) []float64 {
	vals = append(vals, float64(len(ranks)))
	for _, r := range ranks {
		vals = append(vals, float64(r))
	}
	return vals
}

func decodeRanks(vals []float64) ([]int, []float64, error) {
	if len(vals) < 1 {
		return nil, nil, fmt.Errorf("missing count")
	}
	k := int(vals[0])
	if k < 0 || len(vals) < 1+k {
		return nil, nil, fmt.Errorf("%d ranks promised, %d values present", k, len(vals)-1)
	}
	ranks := make([]int, k)
	for i := range ranks {
		ranks[i] = int(vals[1+i])
	}
	return ranks, vals[1+k:], nil
}

// appendLayout flattens a layout as (p, p+1 starts, p arrangement) —
// the same replicated translation state the elastic transition wire
// carries, rebuilt on the far side with partition.NewFromStarts.
func appendLayout(vals []float64, l *partition.Layout) []float64 {
	starts := l.Starts()
	arr := l.Arrangement()
	vals = append(vals, float64(len(arr)))
	for _, s := range starts {
		vals = append(vals, float64(s))
	}
	for _, a := range arr {
		vals = append(vals, float64(a))
	}
	return vals
}

func decodeLayout(vals []float64) (*partition.Layout, []float64, error) {
	if len(vals) < 1 {
		return nil, nil, fmt.Errorf("missing processor count")
	}
	k := int(vals[0])
	// (k+1) starts + k arrangement entries after the count, tested by
	// division: 1+(k+1)+k overflows for a hostile k.
	if k <= 0 || k > (len(vals)-2)/2 {
		return nil, nil, fmt.Errorf("%d processors promised, %d values present", k, len(vals)-1)
	}
	starts := make([]int64, k+1)
	for i := range starts {
		starts[i] = int64(vals[1+i])
	}
	arr := make([]int, k)
	for i := range arr {
		arr[i] = int(vals[1+k+1+i])
	}
	l, err := partition.NewFromStarts(starts, arr)
	if err != nil {
		return nil, nil, err
	}
	return l, vals[1+k+1+k:], nil
}
