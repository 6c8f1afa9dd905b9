package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"stance/internal/hetero"
	"stance/internal/jobsvc"
)

// tiny shrinks a workload to a mesh of a few hundred vertices and a
// handful of operations, so its builder runs in milliseconds.
func tiny(w workload) workload {
	if w.Mesh.Kind == "grid" {
		w.Mesh.Rows, w.Mesh.Cols = 16, 16
	} else {
		w.Mesh = jobsvc.GraphSpec{Kind: "honeycomb", Rows: 8, Cols: 10}
	}
	w.P = min(w.P, 8)
	w.Chunks = 3
	if w.Adaptive {
		w.Chunks = 40 // long enough for loads, an outage and the kill
	}
	w.Jobs, w.WarmJobs, w.JobIters = 12, 2, 20
	return w
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	w, _ := workloadByName("adaptive-p4")
	svc, _ := workloadByName("service-c2")
	jobsJSON := func(seed int64) []byte {
		data, err := json.Marshal(genJobs(seed, svc, 30))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for seed := int64(1); seed <= 5; seed++ {
		a, b := genScenario(seed, w.P, w.iters()).json(), genScenario(seed, w.P, w.iters()).json()
		if !bytes.Equal(a, b) {
			t.Errorf("seed %d: scenario JSON differs between two generations", seed)
		}
		if other := genScenario(seed+100, w.P, w.iters()).json(); bytes.Equal(a, other) {
			t.Errorf("seeds %d and %d generate the same scenario", seed, seed+100)
		}
		if !bytes.Equal(jobsJSON(seed), jobsJSON(seed)) {
			t.Errorf("seed %d: job specs differ between two generations", seed)
		}
		if bytes.Equal(jobsJSON(seed), jobsJSON(seed+100)) {
			t.Errorf("seeds %d and %d generate the same job list", seed, seed+100)
		}
		ga, err := w.buildMesh(seed)
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := w.buildMesh(seed)
		gc, _ := w.buildMesh(seed + 100)
		if !reflect.DeepEqual(ga.Coords, gb.Coords) || reflect.DeepEqual(ga.Coords, gc.Coords) {
			t.Errorf("seed %d: mesh coordinates are not a function of the seed", seed)
		}
	}
}

func TestGeneratedJobsAskForOneResultInTen(t *testing.T) {
	svc, _ := workloadByName("service-c2")
	jobs := genJobs(3, svc, 130)
	for base := 0; base < 130; base += 10 {
		n := 0
		for _, j := range jobs[base : base+10] {
			if j.ReturnResult {
				n++
			}
			if j.Iters != svc.JobIters || j.Ranks != svc.P || j.MinRanks != 1 {
				t.Fatalf("job %s: %+v", j.Name, j)
			}
		}
		if n != 1 {
			t.Errorf("jobs %d-%d: %d ask for their result, want 1", base, base+9, n)
		}
	}
}

func TestScenarioKeepsTheKillRecoverable(t *testing.T) {
	w, _ := workloadByName("adaptive-p4")
	for _, iters := range []int{w.iters() / 4, w.iters(), 6010} {
		for seed := int64(0); seed < 300; seed++ {
			sc := genScenario(seed, w.P, iters)
			if err := sc.env().Validate(); err != nil {
				t.Fatalf("seed %d, %d iterations: %v", seed, iters, err)
			}
			if err := sc.checkKillPlacement(); err != nil {
				t.Fatalf("seed %d, %d iterations: %v", seed, iters, err)
			}
			if len(sc.Loads) == 0 || len(sc.Outages) == 0 {
				t.Fatalf("seed %d: scenario has %d loads and %d outages", seed, len(sc.Loads), len(sc.Outages))
			}
		}
	}
}

func TestKillPlacementRulesAreChecked(t *testing.T) {
	w, _ := workloadByName("adaptive-p4")
	// A seed whose victim's buddy is not the coordinator, so the buddy
	// can be given an outage.
	seed := int64(0)
	for genScenario(seed, w.P, w.iters()).Kill.Rank == w.P-1 {
		seed++
	}
	for name, breakIt := range map[string]func(sc *scenario){
		"coordinator": func(sc *scenario) { sc.Kill.Rank = 0 },
		"too early":   func(sc *scenario) { sc.Kill.Iter = sc.Iters / 2 },
		"victim out": func(sc *scenario) {
			sc.Outages = append(sc.Outages, hetero.Outage{Rank: sc.Kill.Rank, FromIter: sc.Kill.Iter - 5, UntilIter: sc.Kill.Iter + 5})
		},
		"victim back less than two checks before": func(sc *scenario) {
			sc.Outages = append(sc.Outages, hetero.Outage{Rank: sc.Kill.Rank, FromIter: sc.Kill.Iter - 40, UntilIter: sc.Kill.Iter - 2*checkEvery + 1})
		},
		"buddy out": func(sc *scenario) {
			sc.Outages = append(sc.Outages, hetero.Outage{Rank: sc.Kill.Rank + 1, FromIter: sc.Kill.Iter + 1, UntilIter: sc.Kill.Iter + 15})
		},
	} {
		sc := genScenario(seed, w.P, w.iters())
		if err := sc.checkKillPlacement(); err != nil {
			t.Fatalf("unbroken scenario rejected: %v", err)
		}
		breakIt(sc)
		if err := sc.checkKillPlacement(); err == nil {
			t.Errorf("%s: broken scenario accepted", name)
		}
	}
}

// TestWorkloadBuildersRunTiny runs every workload's builder at toy size
// and checks results and counters, never a duration.
func TestWorkloadBuildersRunTiny(t *testing.T) {
	for _, full := range workloads {
		w := tiny(full)
		t.Run(w.Name, func(t *testing.T) {
			in, err := prepare(w, 5)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder(w.Name)
			ep := in.episode(context.Background(), w, rec, true)
			if ep.err != nil {
				t.Fatal(ep.err)
			}
			if ep.failed != 0 || ep.attempted == 0 || len(ep.opMs) != ep.attempted {
				t.Fatalf("attempted %d, failed %d, %d samples", ep.attempted, ep.failed, len(ep.opMs))
			}
			if len(rec.snapshot()) < ep.attempted {
				t.Errorf("%d spans for %d operations", len(rec.snapshot()), ep.attempted)
			}
			m := metrics{}
			endToEndMetrics(w, []*episode{ep}, m)
			for _, d := range endToEnd {
				if v := m[d.Name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", d.Name, v)
				}
			}
			if w.Service {
				if ep.svc.polls == 0 || ep.svc.poolMsgs == 0 {
					t.Errorf("service counters empty: %+v", ep.svc)
				}
				return
			}
			if ep.rep.Msgs == 0 || ep.rep.Exec.Msgs == 0 || ep.rep.Iters != w.Chunks*checkEvery {
				t.Errorf("report: %d msgs, %d executor msgs, %d iterations", ep.rep.Msgs, ep.rep.Exec.Msgs, ep.rep.Iters)
			}
			if w.Adaptive {
				if len(ep.rep.Recoveries) != 1 || len(ep.rep.Checks) == 0 || len(ep.rep.Members) == 0 {
					t.Errorf("adaptive job: %d recoveries, %d checks, %d transitions", len(ep.rep.Recoveries), len(ep.rep.Checks), len(ep.rep.Members))
				}
				// The simulated clock makes the whole report repeat.
				again := in.episode(context.Background(), w, nil, false)
				if again.err != nil || again.rep.Wall != ep.rep.Wall || again.rep.Msgs != ep.rep.Msgs || again.rep.Bytes != ep.rep.Bytes {
					t.Errorf("second job differs: wall %v vs %v, msgs %d vs %d (%v)", again.rep.Wall, ep.rep.Wall, again.rep.Msgs, ep.rep.Msgs, again.err)
				}
			}
		})
	}
}

func TestTracedRunFillsTheLadder(t *testing.T) {
	adaptive, _ := workloadByName("adaptive-p4")
	w := tiny(adaptive)
	res := runWorkload(context.Background(), w, 2, 0.01, true, &bytes.Buffer{})
	if !res.Correct {
		t.Fatal(res.Error)
	}
	for _, name := range []string{"comm.pingpong_us", "core.exchange_us", "solver.step_us", "session.run_us_per_iter",
		"core.new_ms", "sched.ghosts", "solver.seq_iter_ms", "comm.msgs_per_iter", "session.virtual_wall_s",
		"loadbal.check_us", "core.remap_ms", "ckpt.take_ms", "vtime.event_us"} {
		if !(res.Metrics[name] > 0) {
			t.Errorf("%s = %v after a traced run", name, res.Metrics[name])
		}
	}
	// The adaptive rungs belong to the adaptive workload alone.
	plain := tiny(workloads[0])
	plain.Chunks = 4
	other := runWorkload(context.Background(), plain, 2, 0.01, true, &bytes.Buffer{})
	if !other.Correct {
		t.Fatal(other.Error)
	}
	for _, name := range []string{"loadbal.check_us", "core.remap_ms", "ckpt.take_ms", "vtime.event_us", "session.virtual_wall_s"} {
		if v, ok := other.Metrics[name]; ok && v != 0 {
			t.Errorf("%s = %v on %s", name, v, plain.Name)
		}
	}
	for name := range res.Metrics {
		if _, ok := defByName(name); !ok {
			t.Errorf("metric %s is not in the tables", name)
		}
	}
	if len(res.line().Metrics) != len(perLayer) {
		t.Errorf("result line has %d metrics, the per-layer table %d", len(res.line().Metrics), len(perLayer))
	}
}

func TestOracleFailsAWrongResult(t *testing.T) {
	w := tiny(workloads[0])
	in, err := prepare(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := append([]float64(nil), in.ref.byVertex...)
	if err := in.ref.check(good); err != nil {
		t.Fatal(err)
	}
	good[7] = math.Nextafter(good[7], math.Inf(1))
	if err := in.ref.check(good); err == nil {
		t.Error("a result one ulp off passed")
	}
	if err := in.ref.check(good[:10]); err == nil {
		t.Error("a short result passed")
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},    // overlaps a: ranks side by side
		{Name: "c", Start: 90, End: 120, Parent: 0},   // clipped to its parent
		{Name: "a.in", Start: 12, End: 22, Parent: 1}, // a grandchild is its parent's business
		{Name: "d", Start: 60, End: 60, Parent: 0},    // empty
	}
	want := []int64{100 - 40 - 10, 10, 30, 30, 10, 0}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	sum := summarize(spans)
	if sum[0].Name != "root" || sum[0].Count != 1 || sum[0].Self != 50 || sum[1].Total != 20 {
		t.Errorf("summary %+v", sum)
	}
}

func TestRecorderIsBoundedAndNilSafe(t *testing.T) {
	var none *recorder
	none.end(none.begin("x", -1, -1, -1))
	if none.snapshot() != nil {
		t.Error("nil recorder recorded")
	}
	r := newRecorder("w")
	for i := 0; i < spanCapacity+5; i++ {
		r.end(r.begin("x", -1, 0, i))
	}
	if len(r.snapshot()) != spanCapacity || r.dropped != 5 {
		t.Errorf("%d spans kept, %d dropped", len(r.snapshot()), r.dropped)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{1: 50, 19: 50, 20: 50, 39: 50, 40: 75, 99: 75, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("%d samples: p%v, want p%v", n, got, want)
		}
	}
}

func TestSpreadIsThePipelinesQuartileDistance(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got := spread(vals); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 12], n=4) == [10.0, 11.0, 12.0]
	if got := spread([]float64{12, 10, 11}); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("spread %v, want %v", got, 2.0/11)
	}
	if spread([]float64{4}) != 0 || spread(nil) != 0 {
		t.Error("fewer than two values have no spread")
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 || quantile([]float64{1, 2, 3, 4, 5}, 1) != 5 {
		t.Error("median or quantile off")
	}
}

func TestJudgeAppliesDirectionBoundAndSpread(t *testing.T) {
	lower := metricDef{Name: "iter_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "iters_per_s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "comm.msgs_per_iter", Better: "lower", Exact: true}
	virtual, _ := defByName("session.virtual_wall_s")
	layer := metricDef{Name: "core.exchange_us", Better: "lower"}
	for _, tc := range []struct {
		name     string
		def      metricDef
		a, b     []float64
		sameCode bool
		want     string
	}{
		{"slower beyond the bound", lower, []float64{100, 101, 99}, []float64{120, 121, 119}, true, verdictWorse},
		{"slower within the bound", lower, []float64{100, 101, 99}, []float64{105, 106, 104}, true, verdictSame},
		{"faster beyond own spread", lower, []float64{100, 101, 99}, []float64{90, 91, 89}, true, verdictBetter},
		{"faster within own spread", lower, []float64{100, 104, 96}, []float64{98, 100, 96}, true, verdictSame},
		{"throughput down", higher, []float64{100, 101, 99}, []float64{80, 81, 79}, true, verdictWorse},
		{"throughput up", higher, []float64{100, 101, 99}, []float64{120, 121, 119}, true, verdictBetter},
		{"too noisy to tell", lower, []float64{100, 130, 70}, []float64{110, 140, 80}, true, verdictUnresolved},
		{"noisy but every run wins", lower, []float64{100, 130, 90}, []float64{60, 80, 50}, true, verdictBetter},
		{"single runs", lower, []float64{100}, []float64{120}, true, verdictWorse},
		{"exact counter repeats", exact, []float64{406.8, 406.8}, []float64{406.8, 406.8}, true, verdictSame},
		{"exact counter moved", exact, []float64{406.8, 406.8}, []float64{406.8, 407}, true, verdictWorse},
		{"exact counter, other commit, more messages", exact, []float64{406.8, 406.8}, []float64{407, 407}, false, verdictSame},
		{"exact counter, other commit, fewer messages", exact, []float64{406.8, 406.8}, []float64{300, 300}, false, verdictBetter},
		{"exact counter, other commit, one side does not repeat", exact, []float64{406.8, 406.8}, []float64{300, 301}, false, verdictWorse},
		{"virtual wall repeats", virtual, []float64{217.373, 217.373}, []float64{217.373, 217.373}, true, verdictSame},
		{"virtual wall moved on one commit", virtual, []float64{217.373, 217.373}, []float64{217.372, 217.372}, true, verdictWorse},
		{"better decisions on another commit", virtual, []float64{217.373, 217.373}, []float64{216.9, 216.9}, false, verdictBetter},
		{"decisions within the bound", virtual, []float64{217.373, 217.373}, []float64{218.1, 218.1}, false, verdictSame},
		{"decisions beyond the bound", virtual, []float64{217.373, 217.373}, []float64{221, 221}, false, verdictWorse},
		{"layer timing is not gated", layer, []float64{10, 10.1}, []float64{20, 20.1}, true, verdictSame},
		{"layer timing improved", layer, []float64{10, 10.1}, []float64{5, 5.1}, true, verdictBetter},
	} {
		if got := judge(tc.def, tc.a, tc.b, tc.sameCode).Verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareExitsNonZeroOnWorse(t *testing.T) {
	mk := func(iter float64, msgs float64) *report {
		r := &report{Env: environment{Commit: "b9664ed", Seed: 1, Seconds: 10}}
		for i := 0; i < 3; i++ {
			r.Runs = append(r.Runs,
				reportRun{Workload: "scale-p64", Seed: 1, resultLine: resultLine{Correct: true, Attempted: 10,
					Metrics: map[string]metricValue{"iter_ms_p50": {iter + float64(i)/100, "ms"}}}},
				reportRun{Workload: "scale-p64", Seed: 1, Trace: true, resultLine: resultLine{Correct: true, Attempted: 10,
					Metrics: map[string]metricValue{"comm.msgs_per_iter": {msgs, "count"}}}})
		}
		return r
	}
	var out bytes.Buffer
	if code := printComparison(&out, mk(1, 400), mk(1.02, 400)); code != 0 {
		t.Errorf("2%% slower exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := printComparison(&out, mk(1, 400), mk(1.3, 400)); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("30%% slower exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := printComparison(&out, mk(1, 400), mk(1, 401)); code != 1 {
		t.Errorf("a moved exact counter exits %d:\n%s", code, out.String())
	}
	change := mk(1, 380)
	change.Env.Commit = "b9664ed-dirty"
	out.Reset()
	if code := printComparison(&out, mk(1, 400), change); code != 0 || !strings.Contains(out.String(), verdictBetter) {
		t.Errorf("fewer messages on another commit exits %d:\n%s", code, out.String())
	}
	failed := mk(1, 400)
	failed.Runs[0].Correct, failed.Runs[0].Failed = false, 10
	if code := printComparison(&out, mk(1, 400), failed); code != 1 {
		t.Errorf("a failed run exits %d", code)
	}
}

// benchmarkJSON mirrors the file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("command %q, paths %q", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: listed %+v, defined %s: %s", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Fatalf("listed %d + %d metrics, tables have %d + %d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	hasSetup := false
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: listed %+v, table %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 || seen[d.Name] {
			t.Errorf("%s: bound %v or duplicate", d.Name, d.Bound)
		}
		seen[d.Name] = true
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: listed %+v, table %+v", i, got, d)
		}
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: duplicate, too long or without direction", d.Name)
		}
		seen[d.Name] = true
	}
}
