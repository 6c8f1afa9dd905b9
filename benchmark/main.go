// Command benchmark is the STANCE reproduction's benchmark: five named
// workloads, five end-to-end metrics measured from outside through the
// public entry points, and a traced run that climbs a per-layer ladder
// (codec, mailbox, transport, executor op, solver step, session run,
// job). See README.md in this directory.
//
//	bash benchmark/run.sh                                  all workloads, both runs, a report
//	bash benchmark/run.sh -workload scale-p64 -seed 7      one workload, end to end
//	bash benchmark/run.sh -workload scale-p64 -trace 1     its per-layer ladder
//	bash benchmark/run.sh -workload scale-p64 -trace s.json   the same, and the recorded spans
//	bash benchmark/run.sh -compare a.json b.json           two reports, metric by metric
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricValue is one number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a single-workload run's standard
// output: the contract with the pipeline that compares commits.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment is the block every report carries.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// reportRun is one run in a report file.
type reportRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	resultLine
}

// report is what the all-workloads mode writes and -compare reads.
type report struct {
	Env  environment `json:"env"`
	Runs []reportRun `json:"runs"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "run one workload (default: all five, each in a fresh process)")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 20, "how long one run measures")
		trace   = flag.String("trace", "0", "0 = end to end; 1 or a file name = the traced run (ladder, spans, per-layer metrics), the spans written to the file")
		out     = flag.String("out", "", "all-workloads mode: write the report to this file")
		runs    = flag.Int("runs", 1, "all-workloads mode: runs per workload and kind")
		compare = flag.Bool("compare", false, "compare two report files given as arguments; exit 1 if any metric got worse")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments %q\n", flag.Args())
		return 2
	}
	// The pipeline spells the two kinds of run -trace 0 and -trace 1;
	// any other value is the traced run with a file for its spans.
	traced, spans := *trace != "0", ""
	if traced && *trace != "1" {
		spans = *trace
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "-seconds and -runs must be positive")
		return 2
	}
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: *seed, Seconds: *seconds,
	}
	if *name == "" {
		return runAll(env, *runs, spans, *out)
	}
	w, ok := workloadByName(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	fmt.Fprintf(os.Stderr, "%s: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g trace=%s\n",
		w.Name, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, env.Seed, env.Seconds, *trace)
	warmCores()
	res := runWorkload(context.Background(), w, *seed, *seconds, traced, os.Stderr)
	if spans != "" && res.spans != nil {
		if err := writeSpans(spans, res.spans, res.dropped); err != nil {
			fmt.Fprintln(os.Stderr, "writing spans:", err)
			return 1
		}
	}
	return printResult(os.Stdout, res)
}

// commit names the source the binary was built from, when the checkout
// is a git repository; a modified tree reads "<commit>-dirty", so that
// -compare does not take a change for its parent.
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	outp, err := exec.CommandContext(ctx, "git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(outp))
}

// line turns a run into the pipeline's result line: every metric of the
// run's kind, by name, with its unit.
func (r *runResult) line() resultLine {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	l := resultLine{Correct: r.Correct, Attempted: max(r.Attempted, 1), Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		l.Metrics[d.Name] = metricValue{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	return l
}

// printResult prints the metrics by name and then, as the last line,
// the result line. It returns the process's exit code.
func printResult(w io.Writer, r *runResult) int {
	l := r.line()
	defs := endToEnd
	if r.Trace {
		defs = perLayer
		if r.Correct {
			fmt.Fprintf(w, "%-28s %8s %14s %14s\n", "span", "count", "total ms", "self ms")
			for _, t := range summarize(r.spans) {
				fmt.Fprintf(w, "%-28s %8d %14.3f %14.3f\n", t.Name, t.Count, ms(t.Total), ms(t.Self))
			}
		}
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-12s %-30s %16.6g %s\n", r.Workload, d.Name, l.Metrics[d.Name].Value, d.Unit)
	}
	if !r.Trace {
		for _, d := range perLayer {
			if v, ok := r.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "%-12s %-30s %16.6g %s\n", r.Workload, d.Name, v, d.Unit)
			}
		}
		fmt.Fprintf(w, "%-12s %-30s %16.6g %s\n", r.Workload, "failed_ratio", float64(l.Failed)/float64(l.Attempted), "ratio")
	}
	if r.Error != "" {
		fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", r.Workload, r.Error)
	}
	data, err := json.Marshal(l)
	if err != nil {
		fmt.Fprintln(os.Stderr, "encoding result:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", data)
	if !r.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh process of this same binary,
// end to end and traced, prints the report and writes it to out. With
// a spans file name each workload's traced run writes its spans beside
// it, the workload's name before the extension.
func runAll(env environment, runs int, spans, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("environment: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, env.Seed, env.Seconds)
	rep := report{Env: env}
	code := 0
	for _, w := range workloads {
		traceArg := "1"
		if spans != "" {
			ext := filepath.Ext(spans)
			traceArg = strings.TrimSuffix(spans, ext) + "." + w.Name + ext
		}
		for _, trace := range []string{"0", traceArg} {
			for i := 0; i < runs; i++ {
				cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(env.Seed),
					"-seconds", fmt.Sprint(env.Seconds), "-trace", trace)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s (trace %s): %v\n", w.Name, trace, err)
					code = 1
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var l resultLine
				if err := json.Unmarshal(lines[len(lines)-1], &l); err != nil {
					fmt.Fprintf(os.Stderr, "%s (trace %s): no result line: %v\n", w.Name, trace, err)
					code = 1
					continue
				}
				os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
				fmt.Println()
				if !l.Correct {
					code = 1
				}
				rep.Runs = append(rep.Runs, reportRun{Workload: w.Name, Seed: env.Seed, Trace: trace != "0", resultLine: l})
			}
		}
	}
	failed, attempted := 0, 0
	for _, r := range rep.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	fmt.Printf("failed_ratio %d/%d operations; every result compared bit for bit with the sequential reference\n", failed, attempted)
	if out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "writing report:", err)
			return 1
		}
	}
	return code
}
