package sim

import (
	"fmt"
	"testing"
)

// chaosSeeds is the fixed chaos seed list CI runs as a required job.
// Every seed carries a forced kill schedule — including coordinator
// kills and buddy-pair kills, which are unrecoverable by construction
// — and RunChaos enforces the crash-stop contract on each: complete
// bit-exact to the reference, or fail loudly with a cause chain
// wrapping ckpt.ErrUnrecoverable. Never hang: a hang trips the
// virtual clock's stall watchdog and comes back as ErrDeadlock, which
// RunChaos rejects.
const chaosSeeds = 24

func TestSimChaosSeeds(t *testing.T) {
	t.Cleanup(func() { flushTimeline(t) })
	for seed := int64(0); seed < chaosSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := RunChaos(seed)
			if err != nil {
				t.Fatal(err)
			}
			checkTimeline(t, "chaos", seed, res)
		})
	}
}

// TestSimChaosScheduleDiversity guards the chaos generator: across the
// CI seed list both unrecoverable flavors and multi-kill recoverable
// schedules must actually occur, and every seed must schedule at least
// one kill.
func TestSimChaosScheduleDiversity(t *testing.T) {
	var unrecoverable, coordinator, pair, multi, recoverable int
	for seed := int64(0); seed < chaosSeeds; seed++ {
		cs, err := GenerateChaos(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(cs.Kills) == 0 {
			t.Errorf("chaos seed %d schedules no kill: %s", seed, cs.Desc)
			continue
		}
		if cs.ExpectUnrecoverable {
			unrecoverable++
			if cs.Kills[0].Rank == 0 {
				coordinator++
			} else {
				pair++
			}
			continue
		}
		recoverable++
		if cs.MinRecoveries > 1 {
			multi++
		}
	}
	for name, n := range map[string]int{
		"recoverable kills":       recoverable,
		"unrecoverable schedules": unrecoverable,
		"coordinator kills":       coordinator,
		"buddy-pair kills":        pair,
		"sequential double kills": multi,
	} {
		if n == 0 {
			t.Errorf("no chaos seed in the %d-seed CI list exercises %s", chaosSeeds, name)
		}
	}
}
