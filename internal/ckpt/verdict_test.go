package ckpt

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"stance/internal/comm"
	"stance/internal/ctl"
	"stance/internal/partition"
)

// testPlan is a small, valid recovery verdict: rank 2 of four died and
// the three survivors re-cut.
func testPlan(t testing.TB) *ctl.Recovery {
	t.Helper()
	old, err := partition.NewBlock(40, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	recut, err := partition.New(40, []float64{1, 2, 1}, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return &ctl.Recovery{
		Iter: 30, CkptIter: 20,
		Dead:      []int{2},
		OldActive: []int{0, 1, 2, 3},
		NewActive: []int{0, 1, 3},
		Old:       old, New: recut,
	}
}

// verdictP is the active-set size the test verdicts are read under:
// testPlan's pre-failure set.
const verdictP = 4

// Verdict opcodes as the control format (internal/ctl) numbers them,
// for building malformed payloads by hand.
const (
	opRecover = 3
	opAbort   = 4
	opRemap   = 5
)

func f64s(vals ...float64) []byte { return comm.F64sToBytes(vals) }

func encodePlan(p *ctl.Recovery) []byte { return ctl.EncodeVerdict(ctl.Verdict{Recovery: p}) }

// remapVerdicts is a remap verdict for verdictP ranks, carrying the
// layout they move to, then three that break its layout: cut short
// inside it, a value trailing it, and an arrangement that is no
// permutation.
func remapVerdicts(t testing.TB) [][]byte {
	t.Helper()
	l, err := partition.New(40, []float64{2, 1, 1, 1}, []int{1, 0, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	good := ctl.EncodeVerdict(ctl.Verdict{Decision: &ctl.Decision{
		Remap: true, Current: 0.5, New: 0.25, Cost: 0.125, Weights: []float64{2, 1, 1, 1}, Layout: l}})
	return [][]byte{
		good, good[:len(good)-8*5], append(good, f64s(0)...),
		f64s(opRemap, 0.5, 0.25, 0.125, 2, 1, 1, 1, 0, 10, 20, 30, 40, 0, 1, 1, 3),
	}
}

// TestDecodeLayoutHostileCount: a processor count so large that the
// payload-length arithmetic would overflow is an unrecoverable error,
// not a makeslice panic.
func TestDecodeLayoutHostileCount(t *testing.T) {
	for _, k := range []float64{5e18, 4e18, math.MaxInt64 / 2, 1 << 62, 2} {
		if _, err := ReadVerdict(f64s(opRecover, 30, 20, 0, 0, 0, k, 0, 0), verdictP); !errors.Is(err, ErrUnrecoverable) {
			t.Errorf("processor count %g over two values: %v", k, err)
		}
	}
}

// TestDecodeVerdictMalformedIsUnrecoverable: every payload ReadVerdict
// cannot read fails with an error wrapping ErrUnrecoverable, the same
// as an abort verdict, so the session fails the run loudly whichever
// way the verdict went wrong.
func TestDecodeVerdictMalformedIsUnrecoverable(t *testing.T) {
	plan := encodePlan(testPlan(t))
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
		{"remap layout cut short", remapVerdicts(t)[1]},
		{"remap layout with a trailing value", remapVerdicts(t)[2]},
		{"remap arrangement no permutation", remapVerdicts(t)[3]},
	} {
		v, err := ReadVerdict(tc.data, verdictP)
		if err == nil {
			t.Errorf("%s: decoded as %+v", tc.name, v)
			continue
		}
		if !errors.Is(err, ErrUnrecoverable) {
			t.Errorf("%s: %v does not wrap ErrUnrecoverable", tc.name, err)
		}
	}
	if v, err := ReadVerdict(ctl.EncodeVerdict(ctl.Verdict{Dead: []int{1, 2}}), verdictP); err != nil || !slices.Equal(v.Dead, []int{1, 2}) {
		t.Errorf("abort verdict decoded as (%+v, %v), want dead ranks [1 2]", v, err)
	}
	if v, err := ReadVerdict(ctl.EncodeVerdict(ctl.Verdict{}), verdictP); err != nil || v.Dead != nil || v.Recovery != nil || v.Epoch != nil || v.Decision != nil {
		t.Errorf("continue verdict decoded as (%+v, %v), want an empty verdict", v, err)
	}
	v, err := ReadVerdict(plan, verdictP)
	if err != nil || !samePlan(v.Recovery, testPlan(t)) {
		t.Errorf("recovery verdict decoded as (%+v, %v)", v, err)
	}
	if v, err := ReadVerdict(remapVerdicts(t)[0], verdictP); err != nil || v.Decision == nil || v.Decision.Layout == nil || v.Decision.Layout.P() != verdictP {
		t.Errorf("remap verdict decoded as (%+v, %v), want a layout over %d ranks", v, err, verdictP)
	}
}

// FuzzCkptVerdict: ReadVerdict never panics, fails only with an error
// wrapping ErrUnrecoverable, allocates O(n) for an n-byte payload, and
// a recovery or abort verdict it accepts re-encodes to one that reads
// back equal. Run under `go test -fuzz=FuzzCkptVerdict ./internal/ckpt`.
func FuzzCkptVerdict(f *testing.F) {
	f.Add(ctl.EncodeVerdict(ctl.Verdict{}))
	f.Add(ctl.EncodeVerdict(ctl.Verdict{Dead: []int{1, 2}}))
	f.Add(encodePlan(testPlan(f)))
	// The hostile processor counts that once overflowed the layout
	// decode's length arithmetic into a makeslice panic.
	for _, k := range []float64{5e18, 4e18} {
		f.Add(f64s(opRecover, 30, 20, 0, 0, 0, k, 0, 0))
	}
	for _, data := range remapVerdicts(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := ReadVerdict(data, verdictP)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 16*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil && !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("%v does not wrap ErrUnrecoverable", err)
		}
		switch {
		case err != nil:
		case v.Recovery != nil:
			again, err := ReadVerdict(encodePlan(v.Recovery), verdictP)
			if err != nil || !samePlan(again.Recovery, v.Recovery) {
				t.Fatalf("round trip changed the plan:\n in: %+v\nout: %+v (%v)", v.Recovery, again.Recovery, err)
			}
		case v.Dead != nil:
			again, err := ReadVerdict(ctl.EncodeVerdict(ctl.Verdict{Dead: v.Dead}), verdictP)
			if err != nil || !slices.Equal(again.Dead, v.Dead) {
				t.Fatalf("round trip changed the dead ranks: %v became (%v, %v)", v.Dead, again.Dead, err)
			}
		}
	})
}

func samePlan(a, b *ctl.Recovery) bool {
	return a != nil && b != nil &&
		a.Iter == b.Iter && a.CkptIter == b.CkptIter &&
		slices.Equal(a.Dead, b.Dead) &&
		slices.Equal(a.OldActive, b.OldActive) &&
		slices.Equal(a.NewActive, b.NewActive) &&
		a.Old.Equal(b.Old) && a.New.Equal(b.New)
}
