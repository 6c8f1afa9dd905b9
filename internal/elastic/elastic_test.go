package elastic

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/ctl"
	"stance/internal/graph"
	"stance/internal/partition"
)

func TestProposalWireRoundTrip(t *testing.T) {
	old, err := partition.NewBlock(101, []float64{1, 2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	new, err := partition.New(101, []float64{1, 1, 3}, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	in := &Proposal{
		Iter:      40,
		Next:      Membership{Epoch: 3, Active: []int{0, 2, 5}},
		OldActive: []int{0, 1, 2, 5},
		Old:       old,
		New:       new,
	}
	out, err := decodeVerdict(encodeProposal(in))
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("proposal decoded as a continue/run-end verdict")
	}
	if out.Iter != in.Iter || out.Next.Epoch != in.Next.Epoch {
		t.Errorf("decoded iter/epoch %d/%d, want %d/%d", out.Iter, out.Next.Epoch, in.Iter, in.Next.Epoch)
	}
	if !slices.Equal(out.Next.Active, in.Next.Active) || !slices.Equal(out.OldActive, in.OldActive) {
		t.Errorf("decoded active sets %v/%v, want %v/%v",
			out.OldActive, out.Next.Active, in.OldActive, in.Next.Active)
	}
	if !out.Old.Equal(in.Old) || !out.New.Equal(in.New) {
		t.Error("decoded layouts differ from the originals")
	}
	for _, data := range [][]byte{ctl.EncodeContinue(), ctl.EncodeRunEnd()} {
		p, err := decodeVerdict(data)
		if err != nil || p != nil {
			t.Errorf("verdict %v decoded as (%v, %v), want (nil, nil)", data, p, err)
		}
	}
	if _, err := decodeVerdict(f64s(7)); err == nil {
		t.Error("unknown opcode accepted")
	}
	if _, err := decodeVerdict([]byte{1, 2, 3}); err == nil {
		t.Error("non-f64 payload accepted")
	}
}

// TestDecodeVerdictHostileCount: a side count so large that the
// payload-length arithmetic would overflow is an error, not a
// makeslice panic.
func TestDecodeVerdictHostileCount(t *testing.T) {
	for _, k := range []float64{4e18, 3e18, math.MaxInt64 / 3, 1 << 62, 2} {
		if _, err := decodeVerdict(f64s(opEpoch, 0, 0, k)); err == nil {
			t.Errorf("side count %g over an empty payload accepted", k)
		}
	}
}

// opEpoch is the proposal opcode as the control format (internal/ctl)
// numbers it, for building malformed payloads by hand.
const opEpoch = 1

// f64s encodes values the way every control message is encoded:
// little-endian float64s.
func f64s(vals ...float64) []byte {
	var out []byte
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// FuzzElasticVerdict: decodeVerdict never panics, allocates O(n) for
// an n-byte payload, and a payload it accepts re-encodes to one that
// decodes to an equal proposal. Run under `go test
// -fuzz=FuzzElasticVerdict ./internal/elastic`.
func FuzzElasticVerdict(f *testing.F) {
	f.Add(ctl.EncodeContinue())
	f.Add(ctl.EncodeRunEnd())
	old, err := partition.NewBlock(101, []float64{1, 2, 1, 1})
	if err != nil {
		f.Fatal(err)
	}
	recut, err := partition.New(101, []float64{1, 1, 3}, []int{2, 0, 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeProposal(&Proposal{
		Iter: 40, Next: Membership{Epoch: 3, Active: []int{0, 2, 5}},
		OldActive: []int{0, 1, 2, 5}, Old: old, New: recut,
	}))
	// The hostile side counts that once overflowed decodeSide's length
	// arithmetic into a makeslice panic.
	for _, k := range []float64{4e18, 3e18} {
		f.Add(f64s(opEpoch, 0, 0, k))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := decodeVerdict(data)
		runtime.ReadMemStats(&after)
		// A small multiple of n (a layout of p processors rebuilds a
		// few p-entry tables from its 16p bytes), plus room for an
		// error.
		if got := after.TotalAlloc - before.TotalAlloc; got > 16*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil || p == nil {
			return
		}
		again, err := decodeVerdict(encodeProposal(p))
		if err != nil {
			t.Fatalf("re-encoded proposal does not decode: %v", err)
		}
		if again.Iter != p.Iter || again.Next.Epoch != p.Next.Epoch ||
			!slices.Equal(again.Next.Active, p.Next.Active) || !slices.Equal(again.OldActive, p.OldActive) ||
			!again.Old.Equal(p.Old) || !again.New.Equal(p.New) {
			t.Fatalf("round trip changed the proposal:\n in: %+v\nout: %+v", p, again)
		}
	})
}

func TestValidActive(t *testing.T) {
	for _, bad := range [][]int{nil, {}, {1, 2}, {0, 2, 2}, {0, 3, 1}, {0, 8}} {
		if err := ValidActive(bad, 4); err == nil {
			t.Errorf("ValidActive(%v, 4) accepted", bad)
		}
	}
	for _, good := range [][]int{{0}, {0, 1, 2, 3}, {0, 3}} {
		if err := ValidActive(good, 4); err != nil {
			t.Errorf("ValidActive(%v, 4): %v", good, err)
		}
	}
}

func TestMembership(t *testing.T) {
	m := Membership{Epoch: 1, Active: []int{0, 2, 3}}
	if m.SubRank(0) != 0 || m.SubRank(2) != 1 || m.SubRank(3) != 2 {
		t.Errorf("sub ranks %d %d %d, want 0 1 2", m.SubRank(0), m.SubRank(2), m.SubRank(3))
	}
	if m.Contains(1) || m.SubRank(1) != -1 {
		t.Error("parked rank 1 reported active")
	}
}

// ringGraph builds a cycle of n vertices.
func ringGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{U: int32(i), V: int32((i + 1) % n)}
	}
	g, err := graph.FromEdges(n, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestProtocolShrinkGrow drives the raw epoch protocol on a 3-rank
// world: full membership, retire rank 1, grow back — asserting that a
// distributed vector survives both transitions bit for bit and that
// the parked rank blocks in Park until its admission proposal.
func TestProtocolShrinkGrow(t *testing.T) {
	const n = 31
	g := ringGraph(t, n)
	world, err := comm.Open("inproc", 3, comm.TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()

	all := []int{0, 1, 2}
	shrunk := []int{0, 2}
	var mu sync.Mutex
	events := map[int][]Event{}

	err = world.SPMD(nil, func(c *comm.Comm) error {
		ctl, err := NewController(c, all)
		if err != nil {
			return err
		}
		rt, err := core.New(c, g, core.Config{})
		if err != nil {
			return err
		}
		v := rt.NewVector()
		v.SetByGlobal(func(gl int64) float64 { return float64(gl) * 1.5 })
		sub, err := c.Sub(all)
		if err != nil {
			return err
		}

		record := func(ev Event) {
			mu.Lock()
			events[c.Rank()] = append(events[c.Rank()], ev)
			mu.Unlock()
		}
		transition := func(prop *Proposal, oldSub *comm.Comm) (*comm.Comm, error) {
			ev, newSub, err := ctl.Transition(prop, oldSub, rt)
			if err != nil {
				return nil, err
			}
			record(ev)
			return newSub, nil
		}

		// Boundary 1: shrink to {0, 2}.
		desired := func() []int { return shrunk }
		cut := func(active []int) (*partition.Layout, error) {
			return rt.CutLayout([]float64{1, 1})
		}
		prop, err := ctl.Boundary(10, rt.Layout(), desired, cut)
		if err != nil {
			return err
		}
		if prop == nil {
			return fmt.Errorf("rank %d: shrink boundary returned no proposal", c.Rank())
		}
		sub, err = transition(prop, sub)
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			if sub != nil {
				return fmt.Errorf("retired rank got a sub-world")
			}
			if !rt.Parked() || len(v.Data) != 0 {
				return fmt.Errorf("retired rank not parked (%d values held)", len(v.Data))
			}
			// Block until re-admitted.
			prop, err := ctl.Park()
			if err != nil {
				return err
			}
			if prop == nil {
				return fmt.Errorf("parked rank released instead of admitted")
			}
			if sub, err = transition(prop, nil); err != nil {
				return err
			}
		} else {
			// Boundary 2 on the shrunken world: no change.
			desired = func() []int { return nil }
			if prop, err = ctl.Boundary(20, rt.Layout(), desired, nil); err != nil {
				return err
			}
			if prop != nil {
				return fmt.Errorf("rank %d: no-change boundary proposed an epoch", c.Rank())
			}
			// Boundary 3: grow back.
			desired = func() []int { return all }
			cut = func(active []int) (*partition.Layout, error) {
				return rt.CutLayout([]float64{1, 1, 1})
			}
			if prop, err = ctl.Boundary(30, rt.Layout(), desired, cut); err != nil {
				return err
			}
			if prop == nil {
				return fmt.Errorf("rank %d: grow boundary returned no proposal", c.Rank())
			}
			if sub, err = transition(prop, sub); err != nil {
				return err
			}
		}

		// Everyone is active again; the vector must be intact.
		iv := rt.GlobalInterval()
		for u := int64(0); u < iv.Len(); u++ {
			if want := float64(iv.Lo+u) * 1.5; v.Data[u] != want {
				return fmt.Errorf("rank %d: element %d = %g after shrink+grow, want %g",
					c.Rank(), iv.Lo+u, v.Data[u], want)
			}
		}
		// And the executor must work on the regrown world.
		return rt.Exchange(v)
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, evs := range events {
		if len(evs) != 2 {
			t.Fatalf("rank %d saw %d transitions, want 2", rank, len(evs))
		}
		if evs[0].Epoch != 1 || evs[1].Epoch != 2 {
			t.Errorf("rank %d epochs %d, %d, want 1, 2", rank, evs[0].Epoch, evs[1].Epoch)
		}
		if !slices.Equal(evs[0].Retired, []int{1}) || !slices.Equal(evs[1].Admitted, []int{1}) {
			t.Errorf("rank %d: retired %v / admitted %v, want [1] / [1]",
				rank, evs[0].Retired, evs[1].Admitted)
		}
		for i, ev := range evs {
			if ev.MovedBytes <= 0 {
				t.Errorf("rank %d transition %d moved %d bytes, want > 0", rank, i, ev.MovedBytes)
			}
		}
	}
	// All ranks agree on the global migration accounting.
	for i := 0; i < 2; i++ {
		if events[0][i].MovedBytes != events[1][i].MovedBytes ||
			events[0][i].MovedBytes != events[2][i].MovedBytes {
			t.Errorf("transition %d: ranks disagree on moved bytes: %d %d %d",
				i, events[0][i].MovedBytes, events[1][i].MovedBytes, events[2][i].MovedBytes)
		}
	}
}
