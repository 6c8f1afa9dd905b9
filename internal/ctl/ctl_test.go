package ctl

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"stance/internal/comm"
	"stance/internal/partition"
)

func f64s(vals ...float64) []byte { return comm.F64sToBytes(vals) }

func mustLayout(t testing.TB, n int64, w []float64, arr []int) *partition.Layout {
	t.Helper()
	l, err := partition.New(n, w, arr)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func testEpoch(t testing.TB) *Epoch {
	return &Epoch{
		Iter: 40, Epoch: 3,
		OldActive: []int{0, 1, 2, 5}, Old: mustLayout(t, 101, []float64{1, 2, 1, 1}, []int{0, 1, 2, 3}),
		Active: []int{0, 2, 5}, New: mustLayout(t, 101, []float64{1, 1, 3}, []int{2, 0, 1}),
	}
}

// testRemap is a remap decision over three ranks with the layout it
// moves to: positions hold ranks 2, 0 and 1, over 30 elements.
func testRemap(t testing.TB) *Decision {
	l, err := partition.NewFromStarts([]int64{0, 6, 13, 30}, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return &Decision{Remap: true, Current: 0.5, New: 0.25, Cost: 0.125, Weights: []float64{1, 2.5, 0.75}, Layout: l}
}

// Malformed remaps for a three-rank receiver, each breaking the layout
// of a testRemap verdict: its starts and arrangement run past the
// payload, a value trails it, or its arrangement is no permutation.
func badRemaps(t testing.TB) [][]byte {
	good := EncodeVerdict(Verdict{Decision: testRemap(t)})
	return [][]byte{
		good[:len(good)-8*4],
		append(good, f64s(0)...),
		f64s(wRemap, 0.5, 0.25, 0.125, 1, 2.5, 0.75, 0, 6, 13, 30, 2, 0, 0),
	}
}

func testRecovery(t testing.TB) *Recovery {
	return &Recovery{
		Iter: 30, CkptIter: 20,
		Dead: []int{2}, OldActive: []int{0, 1, 2, 3}, NewActive: []int{0, 1, 3},
		Old: mustLayout(t, 40, []float64{1, 1, 1, 1}, []int{0, 1, 2, 3}),
		New: mustLayout(t, 40, []float64{1, 2, 1}, []int{2, 0, 1}),
	}
}

// testVerdicts is one verdict of every kind, each with the active-set
// size its receiver decodes it under.
func testVerdicts(t testing.TB) []struct {
	v Verdict
	p int
} {
	return []struct {
		v Verdict
		p int
	}{
		{Verdict{}, 4},
		{Verdict{Decision: &Decision{Weights: []float64{1, 1}}}, 2},
		{Verdict{Decision: testRemap(t)}, 3},
		{Verdict{Decision: &Decision{Remap: true, Weights: []float64{1}, Layout: mustLayout(t, 5, []float64{1}, []int{0})}}, 1},
		{Verdict{Epoch: testEpoch(t)}, 4},
		{Verdict{Epoch: testEpoch(t)}, 0},
		{Verdict{RunEnd: true}, 0},
		{Verdict{Recovery: testRecovery(t)}, 4},
		{Verdict{Dead: []int{1, 3}}, 4},
	}
}

// Opcodes as the wire numbers them, for building malformed payloads.
const (
	wEpoch   = 1
	wRecover = 3
	wAbort   = 4
	wRemap   = 5
)

// TestControlWireBytes pins the boundary report and every verdict op
// to its float vector, so a drift in the format fails here by name.
// The report is the heartbeat's iteration followed by the old load
// report without its item count. Each verdict keeps the layout of the
// message it replaced, under the one opcode space: recovery and abort
// moved from 1 and 2 to 3 and 4, and a decision's remap flag became the
// continue/remap opcode, so a continue verdict is exactly as long as
// the old decision. A remap appends the layout every rank moves to, in
// the layout encoding epochs and recoveries use.
func TestControlWireBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  []byte
		want []float64
	}{
		{"report", EncodeReport(Report{Iter: 40, Rate: 2.5e-6, Inspector: 0.0125}), []float64{40, 2.5e-6, 0.0125}},
		{"continue", EncodeVerdict(Verdict{}), []float64{0}},
		{"continue with a decision", EncodeVerdict(Verdict{Decision: &Decision{Weights: []float64{1, 1}}}),
			[]float64{0, 0, 0, 0, 1, 1}},
		{"remap", EncodeVerdict(Verdict{Decision: testRemap(t)}),
			[]float64{5, 0.5, 0.25, 0.125, 1, 2.5, 0.75, 0, 6, 13, 30, 2, 0, 1}},
		{"epoch", EncodeVerdict(Verdict{Epoch: testEpoch(t)}), []float64{1, 40, 3,
			4, 0, 1, 2, 5, 0, 20, 61, 81, 101, 0, 1, 2, 3,
			3, 0, 2, 5, 0, 61, 81, 101, 2, 0, 1}},
		{"run end", EncodeVerdict(Verdict{RunEnd: true}), []float64{2}},
		{"recover", EncodeVerdict(Verdict{Recovery: testRecovery(t)}), []float64{3, 30, 20,
			1, 2, 4, 0, 1, 2, 3, 3, 0, 1, 3,
			4, 0, 10, 20, 30, 40, 0, 1, 2, 3,
			3, 0, 10, 20, 40, 2, 0, 1}},
		{"abort", EncodeVerdict(Verdict{Dead: []int{1, 3}}), []float64{4, 2, 1, 3}},
	} {
		if want := f64s(tc.want...); !bytes.Equal(tc.got, want) {
			t.Errorf("%s: encoded %d bytes %x, want %x", tc.name, len(tc.got), tc.got, want)
		}
	}
}

// sameDecision compares two decisions field by field, the layout by
// value.
func sameDecision(a, b *Decision) bool {
	return a == nil && b == nil || a != nil && b != nil &&
		a.Remap == b.Remap && a.Current == b.Current && a.New == b.New && a.Cost == b.Cost &&
		slices.Equal(a.Weights, b.Weights) && (a.Layout == nil) == (b.Layout == nil) &&
		(a.Layout == nil || a.Layout.Equal(b.Layout))
}

// sameVerdict compares two verdicts field by field, layouts by value.
func sameVerdict(a, b Verdict) bool {
	sameEpoch := func(a, b *Epoch) bool {
		return a == nil && b == nil || a != nil && b != nil &&
			a.Iter == b.Iter && a.Epoch == b.Epoch &&
			slices.Equal(a.OldActive, b.OldActive) && slices.Equal(a.Active, b.Active) &&
			a.Old.Equal(b.Old) && a.New.Equal(b.New)
	}
	sameRecovery := func(a, b *Recovery) bool {
		return a == nil && b == nil || a != nil && b != nil &&
			a.Iter == b.Iter && a.CkptIter == b.CkptIter && slices.Equal(a.Dead, b.Dead) &&
			slices.Equal(a.OldActive, b.OldActive) && slices.Equal(a.NewActive, b.NewActive) &&
			a.Old.Equal(b.Old) && a.New.Equal(b.New)
	}
	return (a.Dead == nil) == (b.Dead == nil) && slices.Equal(a.Dead, b.Dead) && a.RunEnd == b.RunEnd &&
		sameDecision(a.Decision, b.Decision) && sameEpoch(a.Epoch, b.Epoch) && sameRecovery(a.Recovery, b.Recovery)
}

// TestVerdictRoundTrip: every verdict decodes to itself for a receiver
// of the right active-set size, and a decision — a remap's with its
// layout included — reaches no other: neither a parked rank nor a
// world of another size.
func TestVerdictRoundTrip(t *testing.T) {
	for i, tc := range testVerdicts(t) {
		got, err := DecodeVerdict(EncodeVerdict(tc.v), tc.p)
		if err != nil || !sameVerdict(got, tc.v) {
			t.Errorf("verdict %d (%+v) decoded as (%+v, %v)", i, tc.v, got, err)
		}
		if tc.v.Decision == nil {
			continue
		}
		for _, p := range []int{0, tc.p - 1, tc.p + 1} {
			if _, err := DecodeVerdict(EncodeVerdict(tc.v), p); err == nil {
				t.Errorf("verdict %d: a decision of %d weights accepted for %d ranks", i, tc.p, p)
			}
		}
	}
	for i, data := range badRemaps(t) {
		if v, err := DecodeVerdict(data, 3); err == nil {
			t.Errorf("malformed remap %d decoded as %+v", i, v.Decision)
		}
	}
	rep := Report{Iter: 7, Rate: 1e-6, Inspector: 0.5}
	if got, err := DecodeReport(EncodeReport(rep)); err != nil || got != rep {
		t.Errorf("report %+v decoded as (%+v, %v)", rep, got, err)
	}
}

// TestDecodersReject: both decoders turn a truncated payload, a hostile
// count, NaN, a fractional integer and trailing values into an error,
// never a panic, and allocate O(n) doing so. Each case breaks one field
// of a payload that decodes. The hostile counts include ones below
// 2^53, which pass as integers and only the count check stops. The
// verdict rows are every malformed payload the gate, membership and
// decision decoders rejected before they became one.
func TestDecodersReject(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	report := func(data []byte) error { _, err := DecodeReport(data); return err }
	verdict := func(data []byte) error { _, err := DecodeVerdict(data, 2); return err }
	// A one-processor side: one rank, starts 0 and 8, arrangement 0.
	side := []float64{1, 0, 0, 8, 0}
	epochOf := func(head ...float64) []byte { return f64s(append(append(head, side...), side...)...) }
	recovery := EncodeVerdict(Verdict{Recovery: testRecovery(t)})
	var bad [][]byte
	for _, k := range []float64{5e18, 4e18, math.MaxInt64 / 2, 1 << 62, 2} {
		bad = append(bad, f64s(wRecover, 30, 20, 0, 0, 0, k, 0, 0))
	}
	for _, k := range []float64{4e18, 3e18, math.MaxInt64 / 3, 1 << 62, 2} {
		bad = append(bad, f64s(wEpoch, 0, 0, k))
	}
	bad = append(bad,
		// decision
		f64s(wRemap, 0.5, 0.25, 0.125, 1), f64s(0.5, 0.5, 0.25, 0.125, 1, 2), f64s(2, 0.5, 0.25, 0.125, 1, 2),
		f64s(wRemap, nan, 0.25, 0.125, 1, 2), f64s(wRemap, 0.5, 0.25, 0.125, 1, nan), f64s(wRemap, 0.5, 0.25, 0.125, 1, 2, 3),
		f64s(0, 0.5, -1, 0.125, 1, 2), f64s(0, 0.5, 0.25, inf, 1, 2), f64s(wRemap, 0.5, 0.25, 0.125),
		// epoch, continue and run end
		f64s(wEpoch, 40, 3, 1, 0, 0, 8), epochOf(wEpoch, 40.5, 3), epochOf(nan, 40, 3), epochOf(7, 40, 3),
		f64s(wEpoch, 40, 3, 4e18), f64s(wEpoch, 40, 3, 1<<50), f64s(wEpoch, 40, 3, 1e6, 0),
		f64s(wEpoch, 40, 3, 1, 0, 0, 8, 0, 0, 1, 0), f64s(0, 0), f64s(2, 0),
		f64s(append(append([]float64{wEpoch, 40, 3}, side...), 1, nan, 0, 8, 0)...),
		append(epochOf(wEpoch, 40, 3), f64s(0)...), f64s(7), []byte{1, 2, 3},
		// recovery and abort
		f64s(wRecover, 30, 20, 0, 0, 0, 1, 0, 8, 0, 1, 0, 8), f64s(wRecover, 30, 20, 1e18, 0),
		f64s(wRecover, 30, 20, 1<<50, 0), f64s(wAbort, 1e6, 1), f64s(wRecover, 30, 20, 0, 0, 0, 1<<50, 0, 0),
		f64s(wRecover, 30, 20, 0, 0, 0, 1e6, 0, 0), f64s(wRecover, 30, 20, 0, 0, 0, 4e18, 0, 0),
		f64s(wRecover, nan, 20, 0, 0, 0, 1, 0, 8, 0, 1, 0, 8, 0),
		f64s(wRecover, 30, 20.5, 0, 0, 0, 1, 0, 8, 0, 1, 0, 8, 0), f64s(wRecover, 30, 20, 1, -2, 0, 0, 1, 0, 8, 0, 1, 0, 8, 0),
		f64s(wRecover, 30, 20, 0, 0, 0, 1, 0, 8, 0, 1, 0, 8, 0, 0), f64s(wAbort, 3, 1), f64s(wAbort, 1, 1, 0), f64s(9),
		nil, f64s(wAbort), f64s(wRecover, 30), f64s(wRecover, 30, 20),
		f64s(wRecover, 30, 20, 0, 0, 0, 1, 5, 8, 0), append(recovery, f64s(0)...), recovery[:len(recovery)-8],
		f64s(nan), f64s(wRecover, 30.5, 20, 0, 0, 0, 1, 0, 8, 0, 1, 0, 8, 0),
		f64s(wRecover, 30, 20, 1, nan, 0, 0, 1, 0, 8, 0, 1, 0, 8, 0),
		f64s(wRecover, 30, 20, 1, -1, 0, 0, 1, 0, 8, 0, 1, 0, 8, 0),
		f64s(wRecover, 30, 20, 0, 0, 0, 1, 0, inf, 0, 1, 0, 8, 0),
	)
	for _, tc := range []struct {
		name   string
		decode func([]byte) error
		good   []byte
		bad    [][]byte
	}{
		{"report", report, f64s(10, 1e-6, 0.5), [][]byte{
			f64s(10, 1e-6), f64s(10, nan, 0.5), f64s(10, -1, 0.5), f64s(10.5, 1e-6, 0.5),
			f64s(-10, 1e-6, 0.5), f64s(10, 1e-6, inf), f64s(10, 1e-6, 0.5, 0), {1, 2, 3},
		}},
		{"verdict", verdict, f64s(wRecover, 30, 20, 0, 0, 0, 1, 0, 8, 0, 1, 0, 8, 0), bad},
	} {
		if err := tc.decode(tc.good); err != nil {
			t.Errorf("%s: valid payload rejected: %v", tc.name, err)
		}
		for i, data := range tc.bad {
			var err error
			if got := allocated(func() { err = tc.decode(data) }); got > allocBound(len(data)) {
				t.Errorf("%s: malformed payload %d of %d bytes allocated %d", tc.name, i, len(data), got)
			}
			if err == nil {
				t.Errorf("%s: malformed payload %d (%x) accepted", tc.name, i, data)
			}
		}
	}
}

// allocated runs f and returns the bytes it allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what decoding an n-byte control payload may allocate:
// a small multiple of n (a layout of p processors rebuilds a few
// p-entry tables from its 16p bytes; a vector of k reports copies
// itself and holds k slice headers and rates), plus room for an error.
func allocBound(n int) uint64 { return 16*uint64(n) + 64<<10 }

// FuzzLoadReports feeds the reports rank 0 collects at a boundary
// through DecodeReports: data is cut into n equal payloads, one per
// member. The decode never panics, allocates O(n) for an n-byte
// vector, and reports it accepts re-encode to reports that decode the
// same. Run under `go test -fuzz=FuzzLoadReports ./internal/ctl`.
func FuzzLoadReports(f *testing.F) {
	good := slices.Concat(
		EncodeReport(Report{Iter: 20, Rate: 1e-6, Inspector: 0.5}),
		EncodeReport(Report{Iter: 20, Rate: 2e-6}),
		EncodeReport(Report{Iter: 20}),
	)
	f.Add(good, uint8(3), uint16(20))
	f.Add(good, uint8(2), uint16(20))
	f.Add(good, uint8(3), uint16(10))
	f.Add(slices.Concat(f64s(1, math.NaN(), 0), f64s(1.5, 1, 0)), uint8(2), uint16(1))
	f.Add(f64s(1, 1), uint8(1), uint16(1))
	f.Add([]byte{255, 255, 255, 255}, uint8(255), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, n uint8, iter uint16) {
		vec := make([][]byte, n)
		for q := range vec {
			vec[q] = data[q*len(data)/len(vec) : (q+1)*len(data)/len(vec)]
		}
		var rates []float64
		var inspector float64
		var err error
		if got := allocated(func() { rates, inspector, err = DecodeReports(vec, int(iter)) }); got > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		again := make([][]byte, len(vec))
		for q, data := range vec {
			rep, err := DecodeReport(data)
			if err != nil || rep.Iter != int(iter) || rep.Rate != rates[q] || rep.Inspector > inspector {
				t.Fatalf("report %d decodes as (%+v, %v) beside iteration %d, rate %g, inspector %g",
					q, rep, err, iter, rates[q], inspector)
			}
			again[q] = EncodeReport(rep)
			if back, err := DecodeReport(again[q]); err != nil || back != rep {
				t.Fatalf("report %d round trip: %+v became (%+v, %v)", q, rep, back, err)
			}
		}
		rates2, inspector2, err := DecodeReports(again, int(iter))
		if err != nil || !reflect.DeepEqual(rates2, rates) || inspector2 != inspector {
			t.Fatalf("round trip changed the reports: rates %v -> %v, inspector %g -> %g (%v)",
				rates, rates2, inspector, inspector2, err)
		}
	})
}

// FuzzVerdict: DecodeVerdict never panics, allocates O(n) for an
// n-byte payload, and a verdict it accepts re-encodes to one that
// decodes to an equal verdict. The seeds are one verdict of every
// kind and the hostile counts that once overflowed the gate's and the
// membership decoders' length arithmetic into a makeslice panic. Run
// under `go test -fuzz=FuzzVerdict ./internal/ctl`.
func FuzzVerdict(f *testing.F) {
	for _, tc := range testVerdicts(f) {
		f.Add(EncodeVerdict(tc.v), uint8(tc.p))
	}
	for _, k := range []float64{5e18, 4e18} {
		f.Add(f64s(wRecover, 30, 20, 0, 0, 0, k, 0, 0), uint8(4))
	}
	for _, k := range []float64{4e18, 3e18} {
		f.Add(f64s(wEpoch, 0, 0, k), uint8(4))
	}
	f.Add(f64s(wRemap, 0.5, 0.25, 0.125, math.NaN()), uint8(1))
	f.Add(f64s(0.5, 0, 0, 0), uint8(0))
	f.Add([]byte{1, 2, 3}, uint8(200))
	f.Add(EncodeVerdict(Verdict{Decision: testRemap(f)}), uint8(3))
	for _, data := range badRemaps(f) {
		f.Add(data, uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, p uint8) {
		var v Verdict
		var err error
		if got := allocated(func() { v, err = DecodeVerdict(data, int(p)) }); got > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		again, err := DecodeVerdict(EncodeVerdict(v), int(p))
		if err != nil || !sameVerdict(again, v) {
			t.Fatalf("round trip changed the verdict:\n in: %+v\nout: %+v (%v)", v, again, err)
		}
	})
}

// FuzzDecision: a continue or remap verdict that DecodeVerdict accepts
// for a receiver of p ranks carries a decision of exactly p weights —
// and, when it remaps, a layout over p ranks and no layout otherwise —
// is rejected by a receiver of any other size (a parked rank included),
// and re-encodes to the same decision. Run under `go test
// -fuzz=FuzzDecision ./internal/ctl`.
func FuzzDecision(f *testing.F) {
	f.Add(EncodeVerdict(Verdict{Decision: &Decision{Weights: []float64{1, 1}}}), uint8(2))
	f.Add(f64s(wRemap, 0.5, 0.25, 0.125, math.NaN()), uint8(1))
	f.Add(f64s(0.5, 0, 0, 0), uint8(0))
	f.Add([]byte{1, 2, 3}, uint8(200))
	f.Add(EncodeVerdict(Verdict{Decision: testRemap(f)}), uint8(3))
	for _, data := range badRemaps(f) {
		f.Add(data, uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, p uint8) {
		var v Verdict
		var err error
		if got := allocated(func() { v, err = DecodeVerdict(data, int(p)) }); got > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil || v.Decision == nil {
			return
		}
		if d := v.Decision; len(d.Weights) != int(p) || d.Remap != (d.Layout != nil) || d.Layout != nil && d.Layout.P() != int(p) {
			t.Fatalf("a decision of %d weights (remap %v, layout %v) accepted for %d ranks", len(d.Weights), d.Remap, d.Layout, p)
		}
		for _, q := range []int{0, int(p) - 1, int(p) + 1} {
			if _, err := DecodeVerdict(data, q); err == nil {
				t.Fatalf("a decision of %d weights accepted for %d ranks", p, q)
			}
		}
		again, err := DecodeVerdict(EncodeVerdict(v), int(p))
		if err != nil || !sameDecision(again.Decision, v.Decision) {
			t.Fatalf("round trip changed the decision: %+v became (%+v, %v)", v.Decision, again.Decision, err)
		}
	})
}
