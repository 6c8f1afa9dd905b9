//go:build race

package comm

// raceEnabled reports that this binary was built with -race, whose
// instrumentation perturbs the timings and allocation counts
// TestMailboxReceiveIsHistoryIndependent compares.
const raceEnabled = true
