package sim

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The timeline pin: every CI seed's virtual walls, exact counters and
// gathered values, one golden line per seed. Correctness invariants
// alone would let a clock change shift every run's timeline and still
// pass; the golden lines make any move of a virtual instant, a check,
// a remap, a message or a bit of the result a failure. Regenerate on
// purpose only, and say so where the change is recorded:
//
//	go test ./internal/sim -run 'TestSimSeeds|TestSimChaosSeeds' -update
var update = flag.Bool("update", false, "rewrite testdata/timeline.golden from this run")

const timelineGolden = "testdata/timeline.golden"

var timeline struct {
	once   sync.Once
	lines  map[string]string // "sim seed=N" -> rest of the line
	err    error
	mu     sync.Mutex
	update map[string]string
}

// timelineLine renders one seed's run: per segment the virtual wall in
// nanoseconds, checks, remaps, recoveries, membership transitions,
// messages and bytes, then an FNV-1a hash of the gathered values. A nil
// result is an unrecoverable chaos schedule, which has nothing to pin
// beyond failing.
func timelineLine(res *Result) string {
	if res == nil {
		return "unrecoverable"
	}
	var b strings.Builder
	for i, rep := range res.Reports {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "wall=%d checks=%d remaps=%d recoveries=%d members=%d msgs=%d bytes=%d",
			rep.Wall.Nanoseconds(), len(rep.Checks), len(rep.Remaps()), len(rep.Recoveries),
			len(rep.Members), rep.Msgs, rep.Bytes)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range res.Values {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	fmt.Fprintf(&b, " | values=%016x", h.Sum64())
	return b.String()
}

// checkTimeline compares a finished seed against its golden line, or
// records it when -update is set (the file is written once the parent
// test's parallel subtests are done; see flushTimeline).
func checkTimeline(t *testing.T, kind string, seed int64, res *Result) {
	t.Helper()
	key := fmt.Sprintf("%s seed=%d", kind, seed)
	got := timelineLine(res)
	if *update {
		timeline.mu.Lock()
		if timeline.update == nil {
			timeline.update = map[string]string{}
		}
		timeline.update[key] = got
		timeline.mu.Unlock()
		return
	}
	timeline.once.Do(func() { timeline.lines, timeline.err = readTimeline() })
	if timeline.err != nil {
		t.Fatal(timeline.err)
	}
	want, ok := timeline.lines[key]
	if !ok {
		t.Fatalf("%s has no line in %s", key, timelineGolden)
	}
	if got != want {
		t.Errorf("%s left its pinned timeline:\n got: %s\nwant: %s", key, got, want)
	}
}

// flushTimeline merges the lines recorded under -update into the golden
// file. Register it with t.Cleanup on the parent of parallel subtests.
func flushTimeline(t *testing.T) {
	if !*update {
		return
	}
	timeline.mu.Lock()
	defer timeline.mu.Unlock()
	lines, err := readTimeline()
	if err != nil {
		lines = map[string]string{}
	}
	for k, v := range timeline.update {
		lines[k] = v
	}
	keys := make([]string, 0, len(lines))
	for k := range lines {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return lessKey(keys[i], keys[j]) })
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\n", k, lines[k])
	}
	if err := os.MkdirAll(filepath.Dir(timelineGolden), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(timelineGolden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// lessKey orders "kind seed=N" keys by kind, then numerically by seed.
func lessKey(a, b string) bool {
	var ka, kb string
	var sa, sb int64
	fmt.Sscanf(a, "%s seed=%d", &ka, &sa)
	fmt.Sscanf(b, "%s seed=%d", &kb, &sb)
	if ka != kb {
		return ka < kb
	}
	return sa < sb
}

func readTimeline() (map[string]string, error) {
	f, err := os.Open(timelineGolden)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	lines := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", timelineGolden, sc.Text())
		}
		lines[k] = v
	}
	return lines, sc.Err()
}
