// Command stance-bench regenerates the paper's evaluation tables
// (Section 5, Tables 1-5) on the simulated cluster, plus the
// hierarchical twin of Table 4 (Table H1): the same loop on a
// two-level cluster of node groups over a slower inter-group link.
// Each table prints the paper's published numbers next to the measured
// ones.
//
// Usage:
//
//	stance-bench [-table all|1|2|3|4|5|hier|h1] [-quick] [-netscale F] [-seed N] [-groups G]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"stance/internal/bench"
	"stance/internal/comm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stance-bench: ")
	table := flag.String("table", "all", "which table to regenerate (all, 1, 2, 3, 4, 5, hier, h1)")
	quick := flag.Bool("quick", false, "reduced sizes and sample counts")
	netScale := flag.Float64("netscale", 1, "Ethernet model scale (1 = the paper's 10 Mbit shared Ethernet)")
	seed := flag.Int64("seed", 1, "workload seed")
	pipeline := flag.Int("pipeline", 0, "executor depth for the solver tables: 0 = synchronous, 1 = exchanges in flight behind the interior sweep, >=2 = also across iterations")
	fields := flag.Int("fields", 1, "independent solution fields per iteration (>=2 lets -pipeline fly several exchanges at once)")
	virtual := flag.Bool("virtual", false, "run the solver tables (4, 5) on the simulated clock: exact, deterministic virtual durations in milliseconds of real time")
	cost := flag.Duration("cost", time.Microsecond, "virtual compute cost per element per work repetition (with -virtual)")
	transport := flag.String("transport", "", "comm transport for the solver tables (default inproc)")
	groups := flag.Int("groups", 0, "node-group count for the hierarchical twin (h1); 0 = the default 2 groups")
	flushPeriod := flag.Duration("flush", 0, "tcp tx batching linger (0 = flush immediately)")
	batchBytes := flag.Int("batch", 0, "tcp tx batch cap in bytes (0 = transport default)")
	compress := flag.String("compress", "", "tcp per-batch compression codec: none, flate or gzip")
	flag.Parse()

	if err := comm.CheckEthernetScale(*netScale); err != nil {
		log.Fatalf("-netscale: %v", err)
	}
	opts := bench.Options{
		Quick: *quick, NetScale: *netScale, Seed: *seed,
		Pipeline: *pipeline, Fields: *fields,
		Transport: *transport, Groups: *groups,
		Net: comm.TransportOptions{
			FlushPeriod: *flushPeriod,
			BatchBytes:  *batchBytes,
			Compression: *compress,
		},
	}
	// Tables 1–3 never open Net, so a bad tuning fails here rather
	// than after them.
	if err := opts.Net.Validate(); err != nil {
		log.Fatal(err)
	}
	if *virtual {
		if *transport != "" && *transport != "inproc" {
			log.Fatalf("-virtual requires the inproc transport (real %s sockets deliver on the wall clock, which a simulated clock cannot see)", *transport)
		}
		opts = opts.Virtual(*cost)
	}
	gens := map[string]func(bench.Options) (*bench.Table, error){
		"1": bench.Table1, "2": bench.Table2, "3": bench.Table3,
		"4": bench.Table4, "5": bench.Table5,
		"h1": bench.TableHierStatic,
	}
	var order []string
	switch *table {
	case "all":
		order = []string{"1", "2", "3", "4", "5", "h1"}
	case "hier":
		order = []string{"h1"}
	default:
		if _, ok := gens[*table]; !ok {
			log.Fatalf("unknown table %q (want all, 1..5, hier, h1)", *table)
		}
		order = []string{*table}
	}
	for _, id := range order {
		start := time.Now()
		t, err := gens[id](opts)
		if err != nil {
			log.Fatalf("table %s: %v", id, err)
		}
		fmt.Println(t.String())
		fmt.Fprintf(os.Stderr, "  (table %s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
