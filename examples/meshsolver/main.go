// Meshsolver reproduces the paper's static-environment experiment
// (Table 4): the 500-iteration irregular loop over the paper-scale
// unstructured mesh on clusters of one to five workstations, with
// efficiency computed by the Section 4 definition. Each cluster size
// is one session. Scaled-down defaults keep the demo under a minute;
// flags restore paper scale.
//
// By default the solver runs at executor depth 1: each iteration posts
// its ghost exchange, computes the interior elements while the
// messages are in flight, then finishes the boundary strip. Results
// are bit-for-bit identical to the synchronous depth 0 (-pipeline 0);
// the printed idle column shows how much exchange latency the interior
// compute failed to hide.
//
//	go run ./examples/meshsolver
//	go run ./examples/meshsolver -iters 500 -work 300
//	go run ./examples/meshsolver -pipeline 0   # the paper's synchronous Phase C
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"stance"
	"stance/internal/metrics"
)

func main() {
	log.SetFlags(0)
	iters := flag.Int("iters", 20, "iterations of the parallel loop (paper: 500)")
	workRep := flag.Int("work", 150, "work amplification per element")
	netScale := flag.Float64("netscale", 1, "Ethernet model scale")
	small := flag.Bool("small", false, "use a small mesh instead of the paper-scale one")
	pipeline := flag.Int("pipeline", 1, "executor depth (0 = the paper's synchronous phase, 1 = exchange in flight behind the interior sweep)")
	flag.Parse()
	if err := stance.CheckEthernetScale(*netScale); err != nil {
		log.Fatalf("-netscale: %v", err)
	}

	var g *stance.Graph
	var err error
	if *small {
		g, err = stance.Honeycomb(40, 60)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		g = stance.PaperMesh()
	}
	fmt.Printf("mesh: %d vertices, %d edges (paper: 30269/44929)\n", g.N, g.NumEdges())
	fmt.Printf("%d iterations, work %d, Ethernet x%g, executor depth %d\n\n", *iters, *workRep, *netScale, *pipeline)
	fmt.Println("Workstations  Time       Efficiency  Exchange idle   (paper: 97.61s..31.50s, eff 1.00..0.62 at 500 iters)")

	var t1 float64
	for p := 1; p <= 5; p++ {
		opts := []stance.Option{
			stance.WithOrdering("rcb"),
			stance.WithNetworkModel(stance.Ethernet(*netScale)),
			stance.WithEnv(stance.UniformEnv(p)),
			stance.WithWorkRep(*workRep),
			stance.WithPipeline(*pipeline),
		}
		s, err := stance.NewSession(context.Background(), g, p, opts...)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := s.Run(*iters)
		s.Close()
		if err != nil {
			log.Fatal(err)
		}
		tp := rep.Wall.Seconds()
		if p == 1 {
			t1 = tp
		}
		seq := make([]float64, p)
		for i := range seq {
			seq[i] = t1
		}
		eff, err := metrics.EfficiencyStatic(tp, seq)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("1..%d          %-9.3fs  %.2f        %v\n", p, tp, eff, rep.Exec.Idle.Round(time.Millisecond))
	}
}
