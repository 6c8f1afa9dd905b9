// Adaptive reproduces the paper's adaptive-environment experiment
// (Table 5): the mesh is decomposed for equal machines, then a
// constant competing load lands on workstation 0. Without load
// balancing the loaded machine drags every phase; with the paper's
// protocol (check after 10 iterations, remap if profitable) the run
// time roughly halves. Each variant is one session: the balanced run
// just adds WithBalancer.
//
//	go run ./examples/adaptive
//	go run ./examples/adaptive -p 5 -factor 3 -iters 40
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"stance"
)

func run(g *stance.Graph, p, iters, workRep int, factor, netScale float64, balance bool) (time.Duration, *stance.CheckEvent, int) {
	opts := []stance.Option{
		stance.WithOrdering("rcb"),
		stance.WithNetworkModel(stance.Ethernet(netScale)),
		stance.WithEnv(stance.LoadedEnv(p, factor)),
		stance.WithWorkRep(workRep),
	}
	if balance {
		// Horizon defaults to the check interval: each periodic check
		// amortizes a remap over the iterations until the next check.
		opts = append(opts, stance.WithBalancer(stance.BalancerConfig{
			CostModel: stance.CostModel{PerMessage: 1e-3 * netScale, PerByte: netScale / 1.25e6},
		}))
	}
	s, err := stance.NewSession(context.Background(), g, p, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Run(iters)
	if err != nil {
		log.Fatal(err)
	}
	// Report the check that remapped (a borderline first check may
	// decline), falling back to the first check.
	var ev *stance.CheckEvent
	if remaps := rep.Remaps(); len(remaps) > 0 {
		ev = &remaps[0]
	} else if checks := rep.Checks; len(checks) > 0 {
		ev = &checks[0]
	}
	return rep.Wall, ev, len(rep.Remaps())
}

func main() {
	log.SetFlags(0)
	p := flag.Int("p", 4, "number of workstations")
	iters := flag.Int("iters", 50, "iterations (paper: 500)")
	workRep := flag.Int("work", 150, "work amplification per element")
	factor := flag.Float64("factor", 3, "competing-load factor on workstation 0")
	netScale := flag.Float64("netscale", 1, "Ethernet model scale")
	small := flag.Bool("small", true, "use a small mesh (disable for paper scale)")
	flag.Parse()
	if err := stance.CheckEthernetScale(*netScale); err != nil {
		log.Fatalf("-netscale: %v", err)
	}

	var g *stance.Graph
	var err error
	if *small {
		g, err = stance.Honeycomb(60, 80)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		g = stance.PaperMesh()
	}
	fmt.Printf("mesh: %d vertices; %d workstations; factor-%g load on workstation 0\n",
		g.N, *p, *factor)
	fmt.Printf("decomposition assumes equal machines; %d iterations\n\n", *iters)

	static, _, _ := run(g, *p, *iters, *workRep, *factor, *netScale, false)
	fmt.Printf("without load balancing: %v\n", static.Round(time.Millisecond))

	adaptive, ev, remaps := run(g, *p, *iters, *workRep, *factor, *netScale, true)
	fmt.Printf("with load balancing:    %v\n", adaptive.Round(time.Millisecond))
	if ev != nil {
		d := ev.Decision
		fmt.Printf("\ncheck after %d iterations:\n", ev.Iter)
		fmt.Printf("  estimated capabilities: %v\n", normalized(d.NewWeights))
		fmt.Printf("  predicted phase time: %.4fs -> %.4fs\n", d.PredictedCurrent, d.PredictedNew)
		fmt.Printf("  remapped: %v (check cost %v, remap cost %v)\n",
			d.Remapped, d.CheckTime.Round(time.Microsecond), d.RemapTime.Round(time.Microsecond))
		if remaps > 1 {
			fmt.Printf("  later checks remapped %d more time(s)\n", remaps-1)
		}
	}
	if adaptive < static {
		fmt.Printf("\nload balancing saved %.0f%% (paper Table 5: ~50%%)\n",
			100*(1-adaptive.Seconds()/static.Seconds()))
	}
}

// normalized scales weights to sum 1 and rounds for display.
func normalized(xs []float64) []float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		if sum > 0 {
			x /= sum
		}
		out[i] = float64(int(x*1000+0.5)) / 1000
	}
	return out
}
