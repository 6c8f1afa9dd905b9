package hetero

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// TestTraceWorkFactorComposition: traces compose multiplicatively with
// base speeds and competing loads, and a capability change moves the
// work factor exactly as the piecewise schedule says.
func TestTraceWorkFactorComposition(t *testing.T) {
	env := &Env{
		Speeds: []float64{1, 0.5},
		Loads:  []Load{{Rank: 1, Factor: 2, FromIter: 10, UntilIter: 20}},
		Traces: []Trace{{Rank: 1, Steps: []TraceStep{
			{FromIter: 5, Capability: 0.25},
			{FromIter: 15, Capability: 2},
		}}},
	}
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		iter int
		want float64
	}{
		{0, 2},    // base speed 0.5 only
		{4, 2},    // before the first trace step
		{5, 8},    // speed 0.5 × capability 0.25
		{9, 8},    //
		{10, 16},  // load factor 2 joins
		{14, 16},  //
		{15, 2},   // capability jumps to 2: 2 × 2 / 2
		{19, 2},   //
		{20, 1},   // load expires: 2 / 2
		{1000, 1}, // final segment holds forever
	}
	for _, c := range cases {
		if got := env.WorkFactor(1, c.iter); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WorkFactor(1, %d) = %g, want %g", c.iter, got, c.want)
		}
	}
	// Rank 0 is untouched by rank 1's schedule.
	for _, iter := range []int{0, 7, 12, 30} {
		if got := env.WorkFactor(0, iter); got != 1 {
			t.Errorf("WorkFactor(0, %d) = %g, want 1", iter, got)
		}
	}
	// Change points include every trace step boundary.
	cps := env.ChangePoints()
	want := []int{5, 10, 15, 20}
	if !reflect.DeepEqual(cps, want) {
		t.Errorf("ChangePoints = %v, want %v", cps, want)
	}
}

// TestTraceOutageComposition: zero-capability trace segments and
// explicit outage windows both take a workstation away, and their
// union drives Available/ActiveSet/Elastic.
func TestTraceOutageComposition(t *testing.T) {
	env := &Env{
		Speeds:  []float64{1, 1, 1},
		Outages: []Outage{{Rank: 1, FromIter: 10, UntilIter: 20}},
		Traces: []Trace{{Rank: 2, Steps: []TraceStep{
			{FromIter: 15, Capability: 0},
			{FromIter: 25, Capability: 1},
		}}},
	}
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
	if !env.Elastic() {
		t.Fatal("zero-capability trace did not make the environment elastic")
	}
	cases := []struct {
		iter   int
		active []int
	}{
		{0, []int{0, 1, 2}},
		{10, []int{0, 2}},    // outage only
		{15, []int{0}},       // outage + zero-capability segment overlap
		{20, []int{0, 1}},    // outage over, trace still zero
		{25, []int{0, 1, 2}}, // both over
	}
	for _, c := range cases {
		if got := env.ActiveSet(c.iter); !reflect.DeepEqual(got, c.active) {
			t.Errorf("ActiveSet(%d) = %v, want %v", c.iter, got, c.active)
		}
	}
	// A zero-capability segment never reaches WorkFactor as a division
	// by zero: the machine is gone, not infinitely slow.
	if got := env.WorkFactor(2, 17); !(got > 0 && !math.IsInf(got, 1)) {
		t.Errorf("WorkFactor during a zero-capability segment = %v, want finite", got)
	}
	// Elastic without any Outage at all: the trace alone suffices.
	env2 := &Env{Speeds: []float64{1, 1}, Traces: []Trace{{Rank: 1, Steps: []TraceStep{{FromIter: 3, Capability: 0}}}}}
	if err := env2.Validate(); err != nil {
		t.Fatal(err)
	}
	if !env2.Elastic() {
		t.Error("trace-only outage not recognized as elastic")
	}
	if env2.Available(1, 5) {
		t.Error("rank 1 available inside a zero-capability segment")
	}
}

// TestTraceValidation: the loud-failure cases.
func TestTraceValidation(t *testing.T) {
	bad := []Env{
		{Speeds: []float64{1, 1}, Traces: []Trace{{Rank: 2, Steps: []TraceStep{{FromIter: 0, Capability: 1}}}}},  // rank out of range
		{Speeds: []float64{1, 1}, Traces: []Trace{{Rank: 1}}},                                                    // no steps
		{Speeds: []float64{1, 1}, Traces: []Trace{{Rank: 1, Steps: []TraceStep{{FromIter: 0, Capability: -1}}}}}, // negative capability
		{Speeds: []float64{1, 1}, Traces: []Trace{{Rank: 0, Steps: []TraceStep{{FromIter: 0, Capability: 0}}}}},  // coordinator taken away
		{Speeds: []float64{1, 1}, Traces: []Trace{{Rank: 1, Steps: []TraceStep{{FromIter: -1, Capability: 1}}}}}, // negative iteration
		{Speeds: []float64{1, 1}, Traces: []Trace{{Rank: 1, Steps: []TraceStep{
			{FromIter: 5, Capability: 1}, {FromIter: 5, Capability: 2},
		}}}}, // non-ascending steps
		{Speeds: []float64{1, 1}, Traces: []Trace{{Rank: 1, Steps: []TraceStep{{FromIter: 0, Capability: math.NaN()}}}}},   // NaN capability
		{Speeds: []float64{1, 1}, Traces: []Trace{{Rank: 1, Steps: []TraceStep{{FromIter: 0, Capability: math.Inf(1)}}}}},  // infinite capability
		{Speeds: []float64{1, 1}, Traces: []Trace{{Rank: 1, Steps: []TraceStep{{FromIter: 0, Capability: math.Inf(-1)}}}}}, // -Inf capability
	}
	for i, env := range bad {
		if err := env.Validate(); err == nil {
			t.Errorf("case %d: invalid trace accepted: %+v", i, env.Traces)
		}
	}
}

// TestTraceJSONRoundTrip: a scenario file carrying traces decodes into
// the same environment it encodes to, and unknown fields anywhere —
// including inside trace steps — are rejected loudly.
func TestTraceJSONRoundTrip(t *testing.T) {
	env := &Env{
		Speeds: []float64{1, 0.5, 2},
		Loads:  []Load{{Rank: 1, Factor: 3, FromIter: 0, UntilIter: 40}},
		Outages: []Outage{
			{Rank: 2, FromIter: 20, UntilIter: 30},
		},
		Traces: []Trace{{Rank: 1, Steps: []TraceStep{
			{FromIter: 10, Capability: 0.5},
			{FromIter: 30, Capability: 1},
		}}},
	}
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Errorf("round trip changed the environment:\n%+v\nvs\n%+v", got, env)
	}
	// Clone must deep-copy trace steps: mutating the clone leaves the
	// original untouched.
	cl := got.Clone()
	cl.Traces[0].Steps[0].Capability = 99
	if got.Traces[0].Steps[0].Capability == 99 {
		t.Error("Clone aliases trace steps")
	}

	for _, bad := range []string{
		`{"speeds":[1,1],"traces":[{"rank":1,"steps":[{"fromIter":0,"capability":1,"oops":2}]}]}`,
		`{"speeds":[1,1],"traces":[{"rank":1,"stepz":[]}]}`,
		`{"speeds":[1,1],"tracez":[]}`,
	} {
		if _, err := FromJSON([]byte(bad)); err == nil {
			t.Errorf("unknown field accepted: %s", bad)
		}
	}
	// And validation applies to decoded files too.
	if _, err := FromJSON([]byte(`{"speeds":[1,1],"traces":[{"rank":0,"steps":[{"fromIter":0,"capability":0}]}]}`)); err == nil {
		t.Error("decoded trace taking the coordinator away was accepted")
	}
}
