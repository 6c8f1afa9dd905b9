package ckpt

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"stance/internal/comm"
	"stance/internal/partition"
)

// testPlan is a small, valid recovery verdict: rank 2 of four died and
// the three survivors re-cut.
func testPlan(t testing.TB) *Plan {
	t.Helper()
	old, err := partition.NewBlock(40, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	recut, err := partition.New(40, []float64{1, 2, 1}, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return &Plan{
		Iter: 30, CkptIter: 20,
		Dead:      []int{2},
		OldActive: []int{0, 1, 2, 3},
		NewActive: []int{0, 1, 3},
		Old:       old, New: recut,
	}
}

// Gate verdict opcodes as the control format (internal/ctl) numbers
// them, for building malformed payloads by hand.
const (
	opRecover = 1
	opAbort   = 2
)

func f64s(vals ...float64) []byte { return comm.F64sToBytes(vals) }

// TestDecodeLayoutHostileCount: a processor count so large that the
// payload-length arithmetic would overflow is an error, not a
// makeslice panic.
func TestDecodeLayoutHostileCount(t *testing.T) {
	for _, k := range []float64{5e18, 4e18, math.MaxInt64 / 2, 1 << 62, 2} {
		if _, err := DecodeVerdict(f64s(opRecover, 30, 20, 0, 0, 0, k, 0, 0)); !errors.Is(err, ErrUnrecoverable) {
			t.Errorf("processor count %g over two values: %v", k, err)
		}
	}
}

// TestDecodeVerdictMalformedIsUnrecoverable: every payload DecodeVerdict
// cannot read fails with an error wrapping ErrUnrecoverable, the same
// as an abort verdict, so the session fails the run loudly whichever
// way the verdict went wrong.
func TestDecodeVerdictMalformedIsUnrecoverable(t *testing.T) {
	plan := EncodePlan(testPlan(t))
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"not float64s", []byte{1, 2, 3}},
		{"empty", nil},
		{"unknown opcode", f64s(7)},
		{"abort without a count", f64s(opAbort)},
		{"abort short of its count", f64s(opAbort, 3, 1)},
		{"truncated recovery", f64s(opRecover, 30)},
		{"recovery without a dead set", f64s(opRecover, 30, 20)},
		{"recovery with a hostile layout count", f64s(opRecover, 30, 20, 0, 0, 0, 4e18, 0, 0)},
		{"recovery with a bad layout", f64s(opRecover, 30, 20, 0, 0, 0, 1, 5, 8, 0)},
		{"trailing value", append(plan, f64s(0)...)},
		{"cut short", plan[:len(plan)-8]},
		{"alive with a trailing value", f64s(0, 0)},
		{"NaN opcode", f64s(math.NaN())},
		{"fractional iteration", f64s(opRecover, 30.5, 20, 0, 0, 0, 1, 0, 8, 0, 1, 0, 8, 0)},
		{"NaN dead rank", f64s(opRecover, 30, 20, 1, math.NaN(), 0, 0, 1, 0, 8, 0, 1, 0, 8, 0)},
		{"negative dead rank", f64s(opRecover, 30, 20, 1, -1, 0, 0, 1, 0, 8, 0, 1, 0, 8, 0)},
		{"hostile dead count", f64s(opRecover, 30, 20, 1e18, 0)},
		{"infinite layout start", f64s(opRecover, 30, 20, 0, 0, 0, 1, 0, math.Inf(1), 0, 1, 0, 8, 0)},
	} {
		p, err := DecodeVerdict(tc.data)
		if err == nil {
			t.Errorf("%s: decoded as %+v", tc.name, p)
			continue
		}
		if !errors.Is(err, ErrUnrecoverable) {
			t.Errorf("%s: %v does not wrap ErrUnrecoverable", tc.name, err)
		}
	}
	if _, err := DecodeVerdict(EncodeAbort([]int{1, 2})); !errors.Is(err, ErrUnrecoverable) {
		t.Errorf("abort verdict: %v does not wrap ErrUnrecoverable", err)
	}
	if p, err := DecodeVerdict(EncodeAlive()); p != nil || err != nil {
		t.Errorf("alive verdict decoded as (%v, %v), want (nil, nil)", p, err)
	}
	p, err := DecodeVerdict(plan)
	if err != nil || !samePlan(p, testPlan(t)) {
		t.Errorf("recovery verdict decoded as (%+v, %v)", p, err)
	}
}

// FuzzCkptVerdict: DecodeVerdict never panics, fails only with an
// error wrapping ErrUnrecoverable, allocates O(n) for an n-byte
// payload, and a payload it accepts re-encodes to one that decodes to
// an equal verdict. Run under `go test -fuzz=FuzzCkptVerdict
// ./internal/ckpt`.
func FuzzCkptVerdict(f *testing.F) {
	f.Add(EncodeAlive())
	f.Add(EncodeAbort([]int{1, 2}))
	f.Add(EncodePlan(testPlan(f)))
	// The hostile processor counts that once overflowed decodeLayout's
	// length arithmetic into a makeslice panic.
	for _, k := range []float64{5e18, 4e18} {
		f.Add(f64s(opRecover, 30, 20, 0, 0, 0, k, 0, 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := DecodeVerdict(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil && !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("%v does not wrap ErrUnrecoverable", err)
		}
		if err != nil || p == nil {
			return
		}
		again, err := DecodeVerdict(EncodePlan(p))
		if err != nil {
			t.Fatalf("re-encoded plan does not decode: %v", err)
		}
		if !samePlan(again, p) {
			t.Fatalf("round trip changed the plan:\n in: %+v\nout: %+v", p, again)
		}
	})
}

func samePlan(a, b *Plan) bool {
	return a != nil && b != nil &&
		a.Iter == b.Iter && a.CkptIter == b.CkptIter &&
		slices.Equal(a.Dead, b.Dead) &&
		slices.Equal(a.OldActive, b.OldActive) &&
		slices.Equal(a.NewActive, b.NewActive) &&
		a.Old.Equal(b.Old) && a.New.Equal(b.New)
}

// allocBound is what decoding an n-byte control payload may allocate:
// a small multiple of n (a layout of p processors rebuilds a few
// p-entry tables from its 16p bytes), plus room for an error.
func allocBound(n int) uint64 { return 16*uint64(n) + 64<<10 }
