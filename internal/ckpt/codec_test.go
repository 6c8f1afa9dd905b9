package ckpt

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestSnapshotRoundTrip: encode/decode is the identity on every field,
// bit-for-bit, across random shapes — including zero-length intervals,
// zero fields, and payloads holding NaN/Inf bit patterns.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := int64(rng.Intn(40))
		lo := int64(rng.Intn(1000))
		s := &Snapshot{
			Iter:   rng.Intn(1 << 20),
			Lo:     lo,
			Hi:     lo + n,
			Fields: make([][]float64, rng.Intn(4)),
		}
		for f := range s.Fields {
			vals := make([]float64, n)
			for i := range vals {
				switch rng.Intn(10) {
				case 0:
					vals[i] = math.NaN()
				case 1:
					vals[i] = math.Inf(1 - 2*rng.Intn(2))
				default:
					vals[i] = rng.NormFloat64()
				}
			}
			s.Fields[f] = vals
		}
		enc, err := AppendSnapshot(nil, s)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		if len(enc) != EncodedLen(len(s.Fields), n) {
			t.Fatalf("trial %d: %d encoded bytes, EncodedLen says %d", trial, len(enc), EncodedLen(len(s.Fields), n))
		}
		got, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if got.Iter != s.Iter || got.Lo != s.Lo || got.Hi != s.Hi || len(got.Fields) != len(s.Fields) {
			t.Fatalf("trial %d: decoded header %+v, want %+v", trial, got, s)
		}
		for f := range s.Fields {
			for i := range s.Fields[f] {
				if math.Float64bits(got.Fields[f][i]) != math.Float64bits(s.Fields[f][i]) {
					t.Fatalf("trial %d: field %d element %d: %x, want %x",
						trial, f, i, math.Float64bits(got.Fields[f][i]), math.Float64bits(s.Fields[f][i]))
				}
			}
		}
	}
}

// TestSnapshotEncodeRejects: malformed snapshots fail at encode time
// instead of producing undecodable bytes.
func TestSnapshotEncodeRejects(t *testing.T) {
	cases := []struct {
		name string
		s    Snapshot
	}{
		{"negative iter", Snapshot{Iter: -1}},
		{"iter overflows u32", Snapshot{Iter: 1 << 33}},
		{"negative lo", Snapshot{Lo: -1, Hi: 2}},
		{"inverted interval", Snapshot{Lo: 5, Hi: 3}},
		{"short field", Snapshot{Lo: 0, Hi: 3, Fields: [][]float64{{1, 2}}}},
	}
	for _, tc := range cases {
		if _, err := AppendSnapshot(nil, &tc.s); err == nil {
			t.Errorf("%s: encode accepted %+v", tc.name, tc.s)
		}
	}
}

// FuzzCkptDecode fuzzes the checkpoint snapshot decoder with the
// round-trip property: any input DecodeSnapshot accepts must re-encode
// to exactly the original bytes (the format is canonical — fixed
// header, then field payloads, no slack), and no input may panic or
// size an allocation from an unvalidated count. Run under `go test
// -fuzz=FuzzCkptDecode ./internal/ckpt`; the seed corpus below and in
// testdata/fuzz keeps the interesting shapes exercised on every
// ordinary `go test` run.
func FuzzCkptDecode(f *testing.F) {
	f.Add([]byte{})                            // too short for a header
	f.Add(make([]byte, snapHeaderLen))         // empty interval, zero fields: canonical
	f.Add(mustEnc(f, 3, 10, 12, 1))            // one field of two elements
	f.Add(mustEnc(f, 0, 0, 5, 3))              // three fields
	f.Add(append(mustEnc(f, 3, 10, 12, 1), 0)) // trailing byte
	huge := make([]byte, snapHeaderLen)        // absurd field count, must not allocate it
	for i := 20; i < 24; i++ {
		huge[i] = 0xff
	}
	f.Add(huge)
	f.Add(mustEnc(f, 3, 10, 12, 1)[:snapHeaderLen+8]) // truncated body
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		round, err := AppendSnapshot(nil, s)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		if !bytes.Equal(round, data) {
			t.Fatalf("decode/encode not a round trip:\n in: %x\nout: %x", data, round)
		}
	})
}

// mustEnc builds a valid wire snapshot for the fuzz seed corpus.
func mustEnc(f *testing.F, iter int, lo, hi int64, nFields int) []byte {
	fields := make([][]float64, nFields)
	for fi := range fields {
		vals := make([]float64, hi-lo)
		for i := range vals {
			vals[i] = float64(fi*100 + i)
		}
		fields[fi] = vals
	}
	enc, err := AppendSnapshot(nil, &Snapshot{Iter: iter, Lo: lo, Hi: hi, Fields: fields})
	if err != nil {
		f.Fatal(err)
	}
	return enc
}
