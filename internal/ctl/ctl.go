// Package ctl is the control plane's wire format: the one round rank 0
// runs at a check boundary (paper Section 3.5's controller). Every
// member sends rank 0 one Report; rank 0 answers with one Verdict —
// abort, recovery, epoch proposal, or continue with the balance
// decision (paper Figure 3's interval starts and arrangement) — and
// wakes parked ranks with the same codec. Both travel on Tag.
//
// Every message is a vector of little-endian float64 values, the codec
// the rest of the library speaks (comm.F64sToBytes, byte for byte);
// ranks, iterations, counts and offsets are integers below 2^53, so
// they travel exactly. One reader decodes them all. It checks every
// count against the remaining payload before it allocates, rejects
// NaN, ±Inf and fractions where an integer belongs, and rejects
// trailing values, so no payload panics a decoder and an n-byte one
// never makes it allocate more than O(n).
package ctl

import (
	"encoding/binary"
	"fmt"
	"math"

	"stance/internal/partition"
)

// Tag carries the boundary round: members' reports up to rank 0, and
// rank 0's verdicts down to the members and to parked ranks. The two
// directions never share a (source, destination) pair, so one tag
// keeps them apart. It sits in the session's 0x5xx block (core uses
// 0x2xx, elastic 0x6xx, ckpt 0x7xx).
const Tag = 0x501

// Verdict opcodes: the first value of every verdict.
const (
	opContinue = 0 // membership and layout unchanged; a Decision may follow
	opEpoch    = 1 // an Epoch follows
	opRunEnd   = 2 // run over, parked ranks return
	opRecover  = 3 // a Recovery follows
	opAbort    = 4 // the dead ranks follow
	opRemap    = 5 // a Decision that remaps follows
)

// writer is a payload under construction. Its methods append like
// the built-in append: w = w.ints(...).
type writer []byte

func (w writer) floats(vs ...float64) writer {
	for _, v := range vs {
		w = binary.LittleEndian.AppendUint64(w, math.Float64bits(v))
	}
	return w
}

func (w writer) ints(vs ...int) writer {
	for _, v := range vs {
		w = w.floats(float64(v))
	}
	return w
}

// ranks appends a count and that many ranks.
func (w writer) ranks(rs []int) writer { return w.ints(len(rs)).ints(rs...) }

// layout appends a layout's p+1 interval starts and p-entry
// arrangement — the replicated translation state of paper Figure 3.
// Every message states p before it.
func (w writer) layout(l *partition.Layout) writer {
	for _, s := range l.Starts() {
		w = w.floats(float64(s))
	}
	return w.ints(l.Arrangement()...)
}

// reader consumes a payload front to back. The first failure sticks:
// later reads return zeros, and done reports it.
type reader struct {
	data []byte
	err  error
}

func newReader(data []byte) reader {
	r := reader{data: data}
	if len(data)%8 != 0 {
		r.fail("payload of %d bytes is not a float64 vector", len(data))
	}
	return r
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ctl: "+format, args...)
	}
}

// left is the number of values not yet read.
func (r *reader) left() int { return len(r.data) / 8 }

func (r *reader) float() float64 {
	if r.err != nil || len(r.data) < 8 {
		r.fail("payload truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
	r.data = r.data[8:]
	return v
}

// finite reads a rate, a time or a weight: finite and non-negative.
func (r *reader) finite() float64 {
	v := r.float()
	if !(v >= 0) || math.IsInf(v, 1) {
		r.fail("value %g is not finite and non-negative", v)
		return 0
	}
	return v
}

// int rejects NaN, ±Inf, fractions and magnitudes past 2^53.
func (r *reader) int() int {
	v := r.float()
	if v != math.Trunc(v) || math.Abs(v) > 1<<53 {
		r.fail("value %g is not an integer", v)
		return 0
	}
	return int(v)
}

// ranks reads a count and that many non-negative ranks. The count is
// checked against the payload left, so a hostile one never reaches
// the allocation.
func (r *reader) ranks() []int {
	k := r.int()
	if k < 0 || k > r.left() {
		r.fail("%d ranks with %d values left", k, r.left())
		k = 0
	}
	out := make([]int, k)
	for i := range out {
		if out[i] = r.int(); out[i] < 0 {
			r.fail("negative rank %d", out[i])
		}
	}
	return out
}

// layout reads the starts and arrangement of a p-processor layout and
// rebuilds it with partition.NewFromStarts, which checks the rest.
func (r *reader) layout(p int) *partition.Layout {
	if p <= 0 || p > (r.left()-1)/2 {
		r.fail("layout of %d processors with %d values left", p, r.left())
	}
	if r.err != nil {
		return nil
	}
	starts, arr := make([]int64, p+1), make([]int, p)
	for i := range starts {
		starts[i] = int64(r.int())
	}
	for i := range arr {
		arr[i] = r.int()
	}
	l, err := partition.NewFromStarts(starts, arr)
	if r.err == nil && err != nil {
		r.fail("%v", err)
	}
	return l
}

// done reports the first failure, or values left after the last field.
func (r *reader) done() error {
	if r.err == nil && len(r.data) != 0 {
		r.fail("%d trailing values", r.left())
	}
	return r.err
}

// Report is one member's message to rank 0 at a boundary: the
// boundary iteration, which is also its liveness proof under a
// checkpoint deadline, its measured compute seconds per data item, and
// its last inspector time in seconds, so that rank 0 prices a remap's
// schedule rebuild with the world's slowest.
type Report struct {
	Iter            int
	Rate, Inspector float64
}

// EncodeReport returns the report payload: iter, rate, inspector.
func EncodeReport(rep Report) []byte {
	return make(writer, 0, 24).ints(rep.Iter).floats(rep.Rate, rep.Inspector)
}

// DecodeReport reads one report.
func DecodeReport(data []byte) (Report, error) {
	r := newReader(data)
	rep := Report{Iter: r.int(), Rate: r.finite(), Inspector: r.finite()}
	if rep.Iter < 0 {
		r.fail("negative iteration %d", rep.Iter)
	}
	return rep, r.done()
}

// DecodeReports reads the reports gathered at the iteration-iter
// boundary, indexed by rank, into the rates and the slowest inspector
// time — the shared schedule-rebuild estimate.
func DecodeReports(reports [][]byte, iter int) (rates []float64, inspector float64, err error) {
	rates = make([]float64, len(reports))
	for q, data := range reports {
		rep, err := DecodeReport(data)
		if err == nil && rep.Iter != iter {
			err = fmt.Errorf("ctl: report for iteration %d at the iteration-%d boundary", rep.Iter, iter)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("ctl: report from rank %d: %w", q, err)
		}
		rates[q], inspector = rep.Rate, max(inspector, rep.Inspector)
	}
	return rates, inspector, nil
}

// Decision is the balance controller's verdict: whether to remap, the
// predicted per-phase seconds of the current and the new layout, the
// estimated remap cost in seconds, one capability weight per rank, and
// — only when it remaps — the layout every rank moves to.
type Decision struct {
	Remap              bool
	Current, New, Cost float64
	Weights            []float64
	Layout             *partition.Layout
}

// Epoch is the elastic coordinator's epoch proposal: the boundary
// iteration, the incoming epoch number, and the outgoing and incoming
// active world ranks with the layout cut over each. Carrying both
// layouts lets a rank parked when the outgoing one was cut rebuild it.
type Epoch struct {
	Iter, Epoch       int
	OldActive, Active []int
	Old, New          *partition.Layout
}

// Recovery is the checkpoint coordinator's recovery verdict: at
// boundary iteration Iter the ranks Dead (ascending) missed their
// deadline, and the survivors NewActive (OldActive minus Dead) restore
// checkpoint iteration CkptIter, taken under OldActive and layout Old,
// onto the layout New re-cut over them. CkptIter is -1 when no
// checkpoint existed yet and survivors restart from initial
// conditions. Every survivor executes it deterministically.
type Recovery struct {
	Iter, CkptIter             int
	Dead, OldActive, NewActive []int
	Old, New                   *partition.Layout
}

// Verdict is rank 0's one answer at a boundary, in the order it ranks
// the outcomes: abort (Dead non-nil: the failure is unrecoverable),
// else Recovery, else an Epoch proposal, else continue — carrying the
// balance Decision when a balance check ran. RunEnd, sent to
// parked ranks only, ends their Run.
type Verdict struct {
	Dead     []int
	Recovery *Recovery
	Epoch    *Epoch
	RunEnd   bool
	Decision *Decision
}

// EncodeVerdict returns the verdict payload: the opcode, then
//   - abort: the dead ranks as a count and ranks;
//   - recovery: iter, ckpt iter, the dead, old active and new active
//     sets (each a count and ranks), then per layout (old, new) p,
//     p+1 starts and p arrangement;
//   - epoch: iter, epoch, then per side (old, new) the active ranks as
//     a count k and k ranks, and the layout over them as k+1 starts and
//     k arrangement;
//   - continue: with a decision, current, new, cost and the p weights;
//     without one, nothing;
//   - remap (a decision whose remap flag is set): current, new, cost,
//     the p weights, then the layout as p+1 starts and p arrangement.
func EncodeVerdict(v Verdict) []byte {
	var w writer
	switch {
	case v.Dead != nil:
		return w.ints(opAbort).ranks(v.Dead)
	case v.Recovery != nil:
		p := v.Recovery
		w = w.ints(opRecover, p.Iter, p.CkptIter).ranks(p.Dead).ranks(p.OldActive).ranks(p.NewActive)
		return w.ints(p.Old.P()).layout(p.Old).ints(p.New.P()).layout(p.New)
	case v.Epoch != nil:
		e := v.Epoch
		w = w.ints(opEpoch, e.Iter, e.Epoch)
		return w.ranks(e.OldActive).layout(e.Old).ranks(e.Active).layout(e.New)
	case v.RunEnd:
		return w.ints(opRunEnd)
	case v.Decision == nil:
		return w.ints(opContinue)
	}
	d := v.Decision
	w = make(writer, 0, 8*(5+3*len(d.Weights))) // room for a remap's layout
	if !d.Remap {
		return w.ints(opContinue).floats(d.Current, d.New, d.Cost).floats(d.Weights...)
	}
	return w.ints(opRemap).floats(d.Current, d.New, d.Cost).floats(d.Weights...).layout(d.Layout)
}

// DecodeVerdict reads a verdict addressed to a rank whose active set
// has p ranks: a decision carries p weights, a remap a p-rank layout.
// A parked rank passes 0: no decision addresses it.
func DecodeVerdict(data []byte, p int) (Verdict, error) {
	r := newReader(data)
	var v Verdict
	switch op := r.int(); {
	case op == opContinue && r.left() == 0:
	case op == opContinue || op == opRemap:
		d := &Decision{Remap: op == opRemap, Current: r.finite(), New: r.finite(), Cost: r.finite()}
		if r.err == nil && (p <= 0 || r.left() < p) {
			r.fail("%d weights for %d ranks", r.left(), p)
		}
		if r.err == nil {
			d.Weights = make([]float64, p)
			for i := range d.Weights {
				d.Weights[i] = r.finite()
			}
		}
		if d.Remap {
			d.Layout = r.layout(p)
		}
		v.Decision = d
	case op == opEpoch:
		e := &Epoch{Iter: r.int(), Epoch: r.int(), OldActive: r.ranks()}
		e.Old = r.layout(len(e.OldActive))
		e.Active = r.ranks()
		e.New = r.layout(len(e.Active))
		v.Epoch = e
	case op == opRunEnd:
		v.RunEnd = true
	case op == opRecover:
		rec := &Recovery{Iter: r.int(), CkptIter: r.int(), Dead: r.ranks(), OldActive: r.ranks(), NewActive: r.ranks()}
		rec.Old = r.layout(r.int())
		rec.New = r.layout(r.int())
		v.Recovery = rec
	case op == opAbort:
		v.Dead = r.ranks()
	default:
		r.fail("unknown verdict opcode %d", op)
	}
	if err := r.done(); err != nil {
		return Verdict{}, err
	}
	return v, nil
}
