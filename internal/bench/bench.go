// Package bench is the experiment harness: one generator per table in
// the paper's evaluation (Section 5), shared by the stance-bench
// command and the repository's testing.B benchmarks. Each generator
// returns a Table carrying the measured rows next to the paper's
// published numbers, which stance-bench prints side by side.
//
// Absolute numbers differ from the paper's 1995 SUN4/Ethernet cluster;
// the network cost model (comm.Ethernet) reproduces the latency and
// bandwidth regime so the qualitative shape — who wins, by what
// factor, where trends reverse — carries over. Options.NetScale
// uniformly scales the modeled network to keep full runs fast; ratios
// between strategies are unaffected.
package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"stance/internal/comm"
	"stance/internal/vtime"
)

// Options control experiment scale.
type Options struct {
	// Quick shrinks sizes, samples and iteration counts to smoke-test
	// levels (used by tests and -quick runs).
	Quick bool
	// NetScale multiplies the modeled Ethernet's latency and transfer
	// times (1 = the paper's 10 Mbit shared Ethernet; 0.05 = a network
	// 20x faster, keeping full benchmark runs short).
	NetScale float64
	// Seed makes randomized workloads reproducible.
	Seed int64
	// Pipeline runs the solver tables (4 and 5) at the given executor
	// depth (see session.Config.Pipeline; 0 = the paper's synchronous
	// phase). Results are bit-for-bit identical at every depth; only
	// the schedule of communication against computation changes.
	Pipeline int
	// Fields is the number of independent solution fields the solver
	// advances per iteration (0 or 1 = the paper's single field). With
	// Pipeline >= 1 and Fields >= 2, several exchanges fly concurrently.
	Fields int
	// Net is the network the solver tables (4 and 5) open their worlds
	// with: the clock (nil means the real clock) and, for socket
	// transports, the wire tuning (batching, compression, heartbeats).
	// Every table sets Net.Model itself, from NetScale. With a
	// vtime.Sim clock the tables measure exact virtual durations and
	// complete instantly — the deterministic mode the shape tests run
	// in. Tables 1–3 measure real computation (orderings, MCR sweeps,
	// inspector builds) and always use the wall clock.
	Net comm.TransportOptions
	// ComputeCost virtualizes the solver tables' per-element compute on
	// the clock (see session.Config.ComputeCost); zero keeps the real
	// spinning kernel.
	ComputeCost time.Duration
	// Transport names the comm transport the solver tables run on (""
	// means "inproc"). Real-socket transports ignore most of the
	// Ethernet model, so absolute numbers shift; the tables stay
	// comparable within one transport.
	Transport string
	// Groups is the node-group count for the hierarchical twin (Table
	// H1); 0 or 1 means the default of 2 groups.
	Groups int
}

// Virtual returns deterministic settings for the solver tables: a
// simulated clock and virtualized compute, so Table 4/5 runs measure
// exact virtual durations in milliseconds of real time.
func (o Options) Virtual(cost time.Duration) Options {
	o.Net.Clock = vtime.NewSim()
	o.ComputeCost = cost
	return o
}

func (o Options) netScale() float64 {
	if o.NetScale <= 0 {
		return 1
	}
	return o.NetScale
}

// Table is one reproduced experiment.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table for terminals.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Cell looks a value up by row index and column name (tests use it to
// assert on shapes).
func (t *Table) Cell(row int, col string) (string, error) {
	ci := -1
	for i, h := range t.Header {
		if h == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return "", fmt.Errorf("bench: no column %q", col)
	}
	if row < 0 || row >= len(t.Rows) {
		return "", fmt.Errorf("bench: row %d of %d", row, len(t.Rows))
	}
	if ci >= len(t.Rows[row]) {
		return "", fmt.Errorf("bench: row %d has no column %d", row, ci)
	}
	return t.Rows[row][ci], nil
}

// seconds formats a duration in seconds with sensible precision.
func seconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-4:
		return fmt.Sprintf("%.2e", s)
	case s < 0.1:
		return fmt.Sprintf("%.5f", s)
	default:
		return fmt.Sprintf("%.3f", s)
	}
}
