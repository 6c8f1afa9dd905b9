package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"stance/internal/comm"
	"stance/internal/partition"
	"stance/internal/redist"
)

// table2Paper holds the paper's published remap costs (seconds) for
// workstation sets {1-3}, {1-4}, {1-5}, with and without MCR.
var table2Paper = map[int64]map[int][2]float64{
	512:     {3: {0.0037, 0.0042}, 4: {0.0041, 0.0043}, 5: {0.0045, 0.0047}},
	2048:    {3: {0.0047, 0.0052}, 4: {0.0044, 0.0056}, 5: {0.0054, 0.006}},
	16384:   {3: {0.026, 0.031}, 4: {0.0234, 0.0309}, 5: {0.0229, 0.0319}},
	131072:  {3: {0.2448, 0.2594}, 4: {0.1816, 0.2440}, 5: {0.184, 0.2584}},
	1048576: {3: {1.8417, 1.9646}, 4: {1.4691, 1.9444}, 5: {1.4294, 2.0691}},
}

// MeasureRemap times the redistribution of a float64 array of the
// given size between two random layouts over a modeled Ethernet,
// averaged over samples adaptations. withMCR selects the arrangement
// search; without it the old arrangement is kept.
func MeasureRemap(size int64, p, samples int, withMCR bool, netScale float64, seed int64) (time.Duration, error) {
	rng := rand.New(rand.NewSource(seed))
	var total time.Duration
	for s := 0; s < samples; s++ {
		old, err := partition.NewBlock(size, randWeights(rng, p))
		if err != nil {
			return 0, err
		}
		newW := randWeights(rng, p)
		var newLayout *partition.Layout
		if withMCR {
			// The runtime's default arrangement search (MCR sweeps with
			// swap refinement to convergence).
			newLayout, err = redist.Iterated(old, newW, redist.OverlapCost)
		} else {
			newLayout, err = partition.New(size, newW, old.Arrangement())
		}
		if err != nil {
			return 0, err
		}
		d, err := runRedistribution(old, newLayout, netScale)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total / time.Duration(samples), nil
}

// runRedistribution executes the data movement for one remap on an
// in-process world with the scaled Ethernet model and returns the wall
// time (barrier to barrier).
func runRedistribution(old, newLayout *partition.Layout, netScale float64) (time.Duration, error) {
	p := old.P()
	w, err := comm.Open("inproc", p, comm.TransportOptions{Model: comm.Ethernet(netScale)})
	if err != nil {
		return 0, err
	}
	defer w.Close()
	var elapsed time.Duration
	err = w.SPMD(context.Background(), func(c *comm.Comm) error {
		rank := c.Rank()
		data := make([]float64, old.Size(rank))
		for i := range data {
			data[i] = float64(rank)*1e6 + float64(i)
		}
		plan, err := redist.NewPlan(old, newLayout, rank)
		if err != nil {
			return err
		}
		if err := c.Barrier(0x301); err != nil {
			return err
		}
		start := time.Now()
		newData := make([]float64, plan.New.Len())
		if err := plan.ApplyLocal(data, newData); err != nil {
			return err
		}
		for _, s := range plan.Sends {
			off := s.Global.Lo - plan.Old.Lo
			if err := c.Send(s.Peer, 0x302, comm.F64sToBytes(data[off:off+s.Global.Len()])); err != nil {
				return err
			}
		}
		for _, r := range plan.Recvs {
			payload, err := c.Recv(r.Peer, 0x302)
			if err != nil {
				return err
			}
			vals, err := comm.BytesToF64s(payload)
			if err != nil {
				return err
			}
			copy(newData[r.Global.Lo-plan.New.Lo:], vals)
		}
		if err := c.Barrier(0x303); err != nil {
			return err
		}
		if rank == 0 {
			elapsed = time.Since(start)
		}
		// Verify the moved data: every element must carry its source
		// value, i.e. the global id is preserved end to end.
		for i, v := range newData {
			g := plan.New.Lo + int64(i)
			srcProc, srcLocal, err := old.Locate(g)
			if err != nil {
				return err
			}
			want := float64(srcProc)*1e6 + float64(srcLocal)
			if v != want {
				return fmt.Errorf("bench: element %d corrupted after remap (%v != %v)", g, v, want)
			}
		}
		return nil
	})
	return elapsed, err
}

// Table2 reproduces "Average cost of data remapping": moving arrays of
// growing size between random partitions, with and without the MCR
// arrangement search. MCR must win every cell by moving less data.
func Table2(opts Options) (*Table, error) {
	sizes := []int64{512, 2048, 16384, 131072, 1048576}
	samplesFor := func(size int64) int {
		switch {
		case opts.Quick:
			return 5
		case size >= 1048576:
			return 2
		case size >= 131072:
			return 6
		default:
			return 20
		}
	}
	if opts.Quick {
		sizes = sizes[:3]
	}
	t := &Table{
		ID:    "Table 2",
		Title: "Average cost of data remapping (seconds)",
		Header: []string{
			"Data Size", "Workstations",
			"Paper MCR", "Paper no-MCR", "Measured MCR", "Measured no-MCR",
		},
		Notes: []string{
			fmt.Sprintf("random capability adaptations, Ethernet model x%g", opts.netScale()),
			"paper: 100 samples of float arrays on SUN4/Ethernet",
		},
	}
	for _, size := range sizes {
		samples := samplesFor(size)
		for _, p := range []int{3, 4, 5} {
			with, err := MeasureRemap(size, p, samples, true, opts.netScale(), opts.Seed)
			if err != nil {
				return nil, err
			}
			without, err := MeasureRemap(size, p, samples, false, opts.netScale(), opts.Seed)
			if err != nil {
				return nil, err
			}
			paper := table2Paper[size][p]
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", size), fmt.Sprintf("1..%d", p),
				seconds(paper[0]), seconds(paper[1]),
				seconds(with.Seconds()), seconds(without.Seconds()),
			})
		}
	}
	return t, nil
}
