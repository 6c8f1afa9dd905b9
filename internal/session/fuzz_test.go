package session

import (
	"context"
	"sync"
	"testing"
	"time"

	"stance/internal/ckpt"
	"stance/internal/loadbal"
	"stance/internal/mesh"
	"stance/internal/vtime"
)

// FuzzConfig: whatever numbers a caller puts in a Config, the input
// yields a session that runs or an error — never a panic, never a
// virtual-time deadlock — and New fails exactly when Validate does,
// with Validate's error. The rank count is bounded to -2..6 here; the
// field count to int8, because each field is a vector per rank.
func FuzzConfig(f *testing.F) {
	g, err := mesh.Honeycomb(6, 6)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int8(4), 0, 0, 0, int8(0), 0, int64(0), false, int64(0), 0, 0, false, 0, 0.0)
	f.Add(int8(4), 3, 1, 2, int8(2), 2, int64(time.Microsecond), true, int64(time.Millisecond), 1, 1, true, 5, 1.5)
	f.Add(int8(3), -5, -3, 0, int8(1), -1, int64(-1), true, int64(-time.Second), 7, -1, true, -1, -1.0)
	f.Add(int8(5), 1<<62, 1<<62, 1<<40, int8(3), 3, int64(1)<<62, true, int64(1)<<62, 0, 0, true, 1<<62, 1e300)
	f.Fuzz(func(t *testing.T, procs int8, workRep, checkEvery, pipeline int, fields int8, groups int,
		computeCost int64, ckptOn bool, detect int64, killRank, killIter int,
		balance bool, horizon int, safety float64) {
		clk := vtime.NewSim()
		cfg := Config{
			Procs:       int(uint8(procs))%9 - 2,
			Groups:      groups,
			ComputeCost: time.Duration(computeCost),
			WorkRep:     workRep,
			CheckEvery:  checkEvery,
			Pipeline:    pipeline,
			Fields:      int(fields),
		}
		cfg.Net.Clock = clk
		if ckptOn {
			cfg.Checkpoint = &ckpt.Config{
				DetectTimeout: time.Duration(detect),
				Kills:         []ckpt.Kill{{Rank: killRank, Iter: killIter}},
			}
		}
		if balance {
			cfg.Balancer = &loadbal.Config{Horizon: horizon, SafetyFactor: safety}
		}
		if cfg.ComputeCost <= 0 && cfg.WorkRep > 64 {
			// A real kernel spins WorkRep sweeps per element; keep a
			// case that Validate accepts quick to run.
			cfg.WorkRep = 64
		}

		verr := cfg.Validate()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		stalled := make(chan struct{})
		var once sync.Once
		clk.SetStallHandler(func() { once.Do(func() { close(stalled); cancel() }) })
		s, err := New(ctx, g, cfg)
		if verr != nil {
			if err == nil {
				s.Close()
				t.Fatalf("Validate rejected the config (%v), New accepted it", verr)
			}
			if err.Error() != verr.Error() {
				t.Fatalf("New said %q, Validate %q", err, verr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Validate accepted the config, New failed: %v", err)
		}
		defer s.Close()
		_, err = s.Run(2)
		select {
		case <-stalled:
			t.Fatalf("virtual-time deadlock (Run: %v)", err)
		default:
		}
	})
}
