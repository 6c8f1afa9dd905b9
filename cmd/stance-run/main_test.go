package main

import (
	"math"
	"testing"
)

// TestCheckScale: every scale comm.Ethernet would panic on is turned
// into an error naming the flag, before the constructor is reached.
func TestCheckScale(t *testing.T) {
	for _, c := range []struct {
		v  float64
		ok bool
	}{
		{0, false},
		{-1, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{1e-4, true},
		{1, true},
	} {
		err := checkScale("-netscale", c.v)
		if (err == nil) != c.ok {
			t.Errorf("checkScale(%g) = %v, want ok=%v", c.v, err, c.ok)
		}
	}
}
