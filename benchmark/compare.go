package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// Verdicts of one (workload, metric) row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// row is one (workload, metric) comparison of two sets of runs.
type row struct {
	Workload, Metric string
	A, B             float64 // medians
	SpreadA, SpreadB float64 // quartile distance as a share of the median
	Change           float64 // (B-A)/A, positive = worse
	Verdict          string
}

// judge applies a metric's direction and bound to two sets of values.
// The change is worse beyond the bound, better beyond both sides' own
// spreads, the same in between — and unresolved when either side's
// spread is wider than the bound, unless every run of the second side
// beats every run of the first. A metric without a bound is reported,
// never judged worse.
//
// An exact counter must not differ at all between runs of one code with
// one seed: within either side always, and across the sides when
// sameCode says they are the same commit and seed. Across commits it is
// judged like any other metric, by its direction — its spreads are zero,
// so any move the right way reads better.
func judge(def metricDef, a, b []float64, sameCode bool) row {
	r := row{Metric: def.Name, A: median(a), B: median(b), SpreadA: spread(a), SpreadB: spread(b)}
	if r.A != 0 {
		r.Change = (r.B - r.A) / r.A
	} else if r.B != 0 {
		r.Change = 1
	}
	if def.Better == "higher" && r.Change != 0 {
		r.Change = -r.Change
	}
	noise := max(r.SpreadA, r.SpreadB)
	if def.Bound == 0 && !def.Exact {
		// An ungated timing needs a floor: two runs can agree by chance.
		noise = max(noise, 0.05)
	}
	switch {
	case def.Exact && !(constant(a) && constant(b) && (!sameCode || a[0] == b[0])):
		r.Verdict = verdictWorse
	case def.Bound > 0 && noise > def.Bound:
		r.Verdict = verdictUnresolved
		if allBeat(def, a, b) {
			r.Verdict = verdictBetter
		}
	case def.Bound > 0 && r.Change > def.Bound:
		r.Verdict = verdictWorse
	case r.Change < -noise && (len(a) > 1 || def.Exact):
		r.Verdict = verdictBetter
	default:
		r.Verdict = verdictSame
	}
	return r
}

// constant reports whether every run saw one and the same value.
func constant(vals []float64) bool {
	for _, v := range vals {
		if v != vals[0] {
			return false
		}
	}
	return true
}

// allBeat reports whether every run of b reads better than every run
// of a.
func allBeat(def metricDef, a, b []float64) bool {
	if def.Better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// compareReports judges every (workload, metric) pair present in both
// reports, end-to-end metrics first.
func compareReports(a, b *report) []row {
	type key struct {
		workload, metric string
	}
	collect := func(r *report) map[key][]float64 {
		out := make(map[key][]float64)
		for _, run := range r.Runs {
			if !run.Correct {
				continue
			}
			for name, v := range run.Metrics {
				k := key{run.Workload, name}
				out[k] = append(out[k], v.Value)
			}
		}
		return out
	}
	va, vb := collect(a), collect(b)
	sameCode := a.Env.Commit == b.Env.Commit && a.Env.Commit != "unknown" && a.Env.Seed == b.Env.Seed
	var rows []row
	for _, w := range workloads {
		for _, list := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range list {
				k := key{w.Name, d.Name}
				if len(va[k]) == 0 || len(vb[k]) == 0 {
					continue
				}
				r := judge(d, va[k], vb[k], sameCode)
				r.Workload = w.Name
				rows = append(rows, r)
			}
		}
	}
	return rows
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (workload, metric) and returns 1 if
// any got worse or any run of either report was incorrect.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err == nil {
		var b *report
		if b, err = readReport(pathB); err == nil {
			return printComparison(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 2
}

func printComparison(w io.Writer, a, b *report) int {
	code := 0
	for _, r := range []*report{a, b} {
		for _, run := range r.Runs {
			if !run.Correct || run.Failed > 0 {
				fmt.Fprintf(w, "%s seed %d: %d of %d operations failed\n", run.Workload, run.Seed, run.Failed, run.Attempted)
				code = 1
			}
		}
	}
	rows := compareReports(a, b)
	counts := map[string]int{}
	fmt.Fprintf(w, "%-12s %-30s %14s %14s %8s %8s %8s  %s\n", "workload", "metric", "a median", "b median", "change", "iqr a", "iqr b", "verdict")
	for _, r := range rows {
		d, _ := defByName(r.Metric)
		gated := ""
		if d.Bound > 0 {
			gated = fmt.Sprintf(" (bound %.0f%%)", 100*d.Bound)
		} else if d.Exact {
			gated = " (exact)"
		}
		fmt.Fprintf(w, "%-12s %-30s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%%  %s%s\n", r.Workload, r.Metric, r.A, r.B,
			100*r.Change, 100*r.SpreadA, 100*r.SpreadB, r.Verdict, gated)
		counts[r.Verdict]++
	}
	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s: %d  ", k, counts[k])
	}
	fmt.Fprintln(w, "(change is signed so that positive is worse)")
	if counts[verdictWorse] > 0 {
		code = 1
	}
	return code
}
