package ctl

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
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

func testRecovery(t testing.TB) *Recovery {
	return &Recovery{
		Iter: 30, CkptIter: 20,
		Dead: []int{2}, OldActive: []int{0, 1, 2, 3}, NewActive: []int{0, 1, 3},
		Old: mustLayout(t, 40, []float64{1, 1, 1, 1}, []int{0, 1, 2, 3}),
		New: mustLayout(t, 40, []float64{1, 2, 1}, []int{2, 0, 1}),
	}
}

// TestControlWireBytes pins every control message to the float vector
// the encoders wrote before they shared this package, so a drift in
// the format fails here by name. The report and decision were packed
// inline as [rate, items, inspector] and [remap, current, new, cost,
// weights...]; the verdicts come from the elastic and checkpoint
// packages' own encoders.
func TestControlWireBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  []byte
		want []float64
	}{
		{"report", EncodeReport(Report{Rate: 2.5e-6, Items: 1200, Inspector: 0.0125}), []float64{2.5e-6, 1200, 0.0125}},
		{"decision", EncodeDecision(Decision{Remap: true, Current: 0.5, New: 0.25, Cost: 0.125, Weights: []float64{1, 2.5, 0.75}}),
			[]float64{1, 0.5, 0.25, 0.125, 1, 2.5, 0.75}},
		{"keep decision", EncodeDecision(Decision{Weights: []float64{1, 1}}), []float64{0, 0, 0, 0, 1, 1}},
		{"continue", EncodeContinue(), []float64{0}},
		{"run end", EncodeRunEnd(), []float64{2}},
		{"epoch", EncodeEpoch(testEpoch(t)), []float64{1, 40, 3,
			4, 0, 1, 2, 5, 0, 20, 61, 81, 101, 0, 1, 2, 3,
			3, 0, 2, 5, 0, 61, 81, 101, 2, 0, 1}},
		{"alive", EncodeAlive(), []float64{0}},
		{"abort", EncodeAbort([]int{1, 3}), []float64{2, 2, 1, 3}},
		{"recover", EncodeRecovery(testRecovery(t)), []float64{1, 30, 20,
			1, 2, 4, 0, 1, 2, 3, 3, 0, 1, 3,
			4, 0, 10, 20, 30, 40, 0, 1, 2, 3,
			3, 0, 10, 20, 40, 2, 0, 1}},
	} {
		if want := f64s(tc.want...); !bytes.Equal(tc.got, want) {
			t.Errorf("%s: encoded %d bytes %x, want %x", tc.name, len(tc.got), tc.got, want)
		}
	}
}

// TestDecodersReject: every decoder turns a truncated payload, a
// hostile count, NaN, a fractional integer and trailing values into an
// error, never a panic, and allocates O(n) doing so. Each case breaks
// one field of a payload that decodes. The hostile counts include ones
// below 2^53, which pass as integers and only the count check stops.
func TestDecodersReject(t *testing.T) {
	nan := math.NaN()
	report := func(data []byte) error { _, err := DecodeReport(data); return err }
	decision := func(data []byte) error { _, err := DecodeDecision(data, 2); return err }
	epoch := func(data []byte) error { _, err := DecodeEpochVerdict(data); return err }
	gate := func(data []byte) error { _, _, err := DecodeGateVerdict(data); return err }
	// A one-processor side: one rank, starts 0 and 8, arrangement 0.
	side := []float64{1, 0, 0, 8, 0}
	epochOf := func(head ...float64) []byte { return f64s(append(append(head, side...), side...)...) }
	for _, tc := range []struct {
		name   string
		decode func([]byte) error
		good   []byte
		bad    [][]byte
	}{
		{"report", report, f64s(1e-6, 10, 0.5), [][]byte{
			f64s(1e-6, 10), f64s(nan, 10, 0.5), f64s(-1, 10, 0.5), f64s(1e-6, 10.5, 0.5),
			f64s(1e-6, -10, 0.5), f64s(1e-6, 10, math.Inf(1)), f64s(1e-6, 10, 0.5, 0), {1, 2, 3},
		}},
		{"decision", decision, f64s(1, 0.5, 0.25, 0.125, 1, 2), [][]byte{
			f64s(1, 0.5, 0.25, 0.125, 1), f64s(0.5, 0.5, 0.25, 0.125, 1, 2), f64s(2, 0.5, 0.25, 0.125, 1, 2),
			f64s(1, nan, 0.25, 0.125, 1, 2), f64s(1, 0.5, 0.25, 0.125, 1, nan), f64s(1, 0.5, 0.25, 0.125, 1, 2, 3),
		}},
		{"epoch", epoch, epochOf(1, 40, 3), [][]byte{
			f64s(1, 40, 3, 1, 0, 0, 8), epochOf(1, 40.5, 3), epochOf(nan, 40, 3), epochOf(7, 40, 3),
			f64s(1, 40, 3, 4e18), f64s(1, 40, 3, 1<<50), f64s(1, 40, 3, 1e6, 0),
			f64s(1, 40, 3, 1, 0, 0, 8, 0, 0, 1, 0), f64s(0, 0), f64s(2, 0),
			f64s(append(append([]float64{1, 40, 3}, side...), 1, nan, 0, 8, 0)...),
			append(epochOf(1, 40, 3), f64s(0)...),
		}},
		{"gate", gate, f64s(1, 30, 20, 0, 0, 0, 1, 0, 8, 0, 1, 0, 8, 0), [][]byte{
			f64s(1, 30, 20, 0, 0, 0, 1, 0, 8, 0, 1, 0, 8), f64s(1, 30, 20, 1e18, 0),
			f64s(1, 30, 20, 1<<50, 0), f64s(2, 1e6, 1), f64s(1, 30, 20, 0, 0, 0, 1<<50, 0, 0),
			f64s(1, 30, 20, 0, 0, 0, 1e6, 0, 0), f64s(1, 30, 20, 0, 0, 0, 4e18, 0, 0),
			f64s(1, nan, 20, 0, 0, 0, 1, 0, 8, 0, 1, 0, 8, 0),
			f64s(1, 30, 20.5, 0, 0, 0, 1, 0, 8, 0, 1, 0, 8, 0), f64s(1, 30, 20, 1, -2, 0, 0, 1, 0, 8, 0, 1, 0, 8, 0),
			f64s(1, 30, 20, 0, 0, 0, 1, 0, 8, 0, 1, 0, 8, 0, 0), f64s(2, 3, 1), f64s(2, 1, 1, 0), f64s(0, 0), f64s(9),
		}},
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
				t.Errorf("%s: malformed payload %d accepted", tc.name, i)
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

// FuzzLoadReports feeds a leader's packed world vector through the
// world-vector decode and then the report decode: neither panics, the
// two allocate O(n) for an n-byte payload, and reports they accept
// re-encode to reports that decode the same. Run under `go test
// -fuzz=FuzzLoadReports ./internal/ctl`.
func FuzzLoadReports(f *testing.F) {
	good := [][]byte{
		EncodeReport(Report{Rate: 1e-6, Items: 100, Inspector: 0.5}),
		EncodeReport(Report{Rate: 2e-6, Items: 50}),
		EncodeReport(Report{}),
	}
	f.Add(comm.EncodeSections(good), uint8(3))
	f.Add(comm.EncodeSections(good), uint8(2))
	f.Add(comm.EncodeSections([][]byte{f64s(math.NaN(), 1, 0), f64s(1, 1.5, 0)}), uint8(2))
	f.Add(comm.EncodeSections([][]byte{f64s(1, 1)}), uint8(1))
	f.Add([]byte{255, 255, 255, 255}, uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		var vec [][]byte
		var rates []float64
		var inspector float64
		var err error
		if got := allocated(func() {
			if vec, err = Sections(data, int(n)); err == nil {
				rates, inspector, err = DecodeReports(vec)
			}
		}); got > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		again := make([][]byte, len(vec))
		for q, data := range vec {
			rep, err := DecodeReport(data)
			if err != nil || rep.Rate != rates[q] || rep.Inspector > inspector {
				t.Fatalf("report %d decodes as (%+v, %v) beside rate %g, inspector %g", q, rep, err, rates[q], inspector)
			}
			again[q] = EncodeReport(rep)
			if back, err := DecodeReport(again[q]); err != nil || back != rep {
				t.Fatalf("report %d round trip: %+v became (%+v, %v)", q, rep, back, err)
			}
		}
		vec2, err := Sections(comm.EncodeSections(again), int(n))
		if err != nil {
			t.Fatalf("re-encoded vector does not decode: %v", err)
		}
		rates2, inspector2, err := DecodeReports(vec2)
		if err != nil || !reflect.DeepEqual(rates2, rates) || inspector2 != inspector {
			t.Fatalf("round trip changed the reports: rates %v -> %v, inspector %g -> %g (%v)",
				rates, rates2, inspector, inspector2, err)
		}
	})
}

// FuzzDecision: DecodeDecision never panics, allocates O(n) for an
// n-byte payload, and a decision it accepts re-encodes to the same
// bytes' worth of decision. Run under `go test -fuzz=FuzzDecision
// ./internal/ctl`.
func FuzzDecision(f *testing.F) {
	f.Add(EncodeDecision(Decision{Remap: true, Current: 0.5, New: 0.25, Cost: 0.125, Weights: []float64{1, 2.5, 0.75}}), uint8(3))
	f.Add(EncodeDecision(Decision{Weights: []float64{1, 1}}), uint8(2))
	f.Add(f64s(1, 0.5, 0.25, 0.125, math.NaN()), uint8(1))
	f.Add(f64s(0.5, 0, 0, 0), uint8(0))
	f.Add([]byte{1, 2, 3}, uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, p uint8) {
		var d Decision
		var err error
		if got := allocated(func() { d, err = DecodeDecision(data, int(p)) }); got > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		again, err := DecodeDecision(EncodeDecision(d), int(p))
		if err != nil || !reflect.DeepEqual(again, d) {
			t.Fatalf("round trip changed the decision: %+v became (%+v, %v)", d, again, err)
		}
	})
}
