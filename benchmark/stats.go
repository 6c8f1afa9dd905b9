package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// median returns the median of vals (0 for none). vals is not modified.
func median(vals []float64) float64 {
	return quantile(vals, 0.5)
}

// quantile returns the q-quantile of vals by linear interpolation
// between order statistics (0 for none). vals is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder are the percentiles a tail timing may be reported at, in
// tenths of a percent.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// tailPercentile picks the highest percentile of tailLadder that still
// has at least ten of n samples beyond it; below 20 samples that is the
// median. A tail read from fewer samples than that is one outlier, not
// a percentile.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

// spread is the distance between the first and third quartile as a
// share of the median, the way the pipeline computes it
// (statistics.quantiles(values, n=4), exclusive method). Fewer than
// two values have no spread.
func spread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	cut := func(i int) float64 { // i-th of 4 cut points, exclusive method
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - 4*j // beyond 0..4 at the ends: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := cut(2)
	if med == 0 {
		return 0
	}
	return math.Abs((cut(3) - cut(1)) / med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// usage is the process's resource use so far.
type usage struct {
	cpu      time.Duration // user + system
	maxRSSMB float64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	// Linux reports ru_maxrss in KiB.
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSSMB: float64(ru.Maxrss) / 1024}
}

// warmCores keeps every core busy until goroutines demonstrably run side
// by side. A fresh process on a small virtual machine can run its first
// parallel section on one core for most of a second; without this the
// first set-up a run times would sometimes read double.
func warmCores() {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		return
	}
	var sink [64]float64
	spin := func(slot int) {
		x := 1.0
		for i := 0; i < 20_000_000; i++ {
			x = x*1.0000001 + 0.1
		}
		sink[slot%len(sink)] = x
	}
	t0 := time.Now()
	spin(0)
	alone := time.Since(t0)
	for try := 0; try < 40; try++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func() { defer wg.Done(); spin(r) }()
		}
		wg.Wait()
		if time.Since(t0) < alone*3/2 {
			return
		}
	}
}
