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

// testAdmission is a proposal that admits rank 1: the active set
// grows from {0, 2, 5} to {0, 1, 2, 5} with a re-cut layout.
func testAdmission(t testing.TB) *Proposal {
	t.Helper()
	old, err := partition.New(101, []float64{1, 1, 3}, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	recut, err := partition.NewBlock(101, []float64{1, 2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return &Proposal{Iter: 40, Epoch: 3, OldActive: []int{0, 2, 5}, Old: old, Active: []int{0, 1, 2, 5}, New: recut}
}

// admitted is the parked rank testAdmission admits.
const admitted = 1

func encodeProposal(p *Proposal) []byte { return ctl.EncodeVerdict(ctl.Verdict{Epoch: p}) }

func sameProposal(a, b *Proposal) bool {
	return a.Iter == b.Iter && a.Epoch == b.Epoch &&
		slices.Equal(a.Active, b.Active) && slices.Equal(a.OldActive, b.OldActive) &&
		a.Old.Equal(b.Old) && a.New.Equal(b.New)
}

// TestProposalWireRoundTrip: a proposal read by the parked rank it
// admits is the proposal sent; run end releases the rank with no
// proposal; any other verdict, or one it cannot read, is an error.
func TestProposalWireRoundTrip(t *testing.T) {
	in := testAdmission(t)
	out, err := admission(encodeProposal(in), admitted)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("proposal decoded as a run-end verdict")
	}
	if !sameProposal(out, in) {
		t.Errorf("decoded proposal %+v, want %+v", out, in)
	}
	if p, err := admission(ctl.EncodeVerdict(ctl.Verdict{RunEnd: true}), admitted); err != nil || p != nil {
		t.Errorf("run-end verdict decoded as (%v, %v), want (nil, nil)", p, err)
	}
	for name, data := range map[string][]byte{
		"continue":              ctl.EncodeVerdict(ctl.Verdict{}),
		"not admitting":         encodeProposal(&Proposal{Iter: 40, Epoch: 3, OldActive: in.Active, Old: in.New, Active: in.OldActive, New: in.Old}),
		"unknown opcode":        f64s(7),
		"non-f64 payload":       {1, 2, 3},
		"truncated proposal":    encodeProposal(in)[:8*5],
		"proposal with a trail": append(encodeProposal(in), f64s(0)...),
	} {
		if p, err := admission(data, admitted); err == nil {
			t.Errorf("%s: accepted as %+v", name, p)
		}
	}
}

// TestDecodeVerdictHostileCount: a side count so large that the
// payload-length arithmetic would overflow is an error, not a
// makeslice panic.
func TestDecodeVerdictHostileCount(t *testing.T) {
	for _, k := range []float64{4e18, 3e18, math.MaxInt64 / 3, 1 << 62, 2} {
		if _, err := admission(f64s(opEpoch, 0, 0, k), admitted); err == nil {
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

// FuzzElasticVerdict: a parked rank's read of the verdict that woke it
// never panics, allocates O(n) for an n-byte payload, and a proposal it
// accepts re-encodes to one that reads back equal. Run under `go test
// -fuzz=FuzzElasticVerdict ./internal/elastic`.
func FuzzElasticVerdict(f *testing.F) {
	f.Add(ctl.EncodeVerdict(ctl.Verdict{}))
	f.Add(ctl.EncodeVerdict(ctl.Verdict{RunEnd: true}))
	f.Add(encodeProposal(testAdmission(f)))
	// The hostile side counts that once overflowed the side decode's
	// length arithmetic into a makeslice panic.
	for _, k := range []float64{4e18, 3e18} {
		f.Add(f64s(opEpoch, 0, 0, k))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := admission(data, admitted)
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
		again, err := admission(encodeProposal(p), admitted)
		if err != nil || again == nil || !sameProposal(again, p) {
			t.Fatalf("round trip changed the proposal:\n in: %+v\nout: %+v (%v)", p, again, err)
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
// the parked rank blocks in Park until its admission proposal. The
// proposals travel as the session's boundary round sends them: one
// verdict multicast to the members, the same bytes to admitted ranks.
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
		ct, err := NewController(c, all)
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
			ev, newSub, err := ct.Transition(prop, oldSub, rt)
			if err != nil {
				return nil, err
			}
			record(ev)
			return newSub, nil
		}

		// boundary is the membership half of a round on the active set:
		// the coordinator proposes and announces, members receive.
		boundary := func(iter int, want []int, cut func([]int) (*partition.Layout, error)) (*Proposal, error) {
			active := ct.Membership().Active
			if c.Rank() != 0 {
				data, err := c.Recv(0, ctl.Tag)
				if err != nil {
					return nil, err
				}
				v, err := ctl.DecodeVerdict(data, len(active))
				c.Release(data)
				return v.Epoch, err
			}
			prop, err := ct.Boundary(iter, want, rt.Layout(), cut)
			if err != nil {
				return nil, err
			}
			payload := ctl.EncodeVerdict(ctl.Verdict{Epoch: prop})
			if err := c.Multicast(active[1:], ctl.Tag, payload); err != nil {
				return nil, err
			}
			if prop != nil {
				for _, r := range diffInts(want, active) {
					if err := c.Send(r, ctl.Tag, payload); err != nil {
						return nil, err
					}
				}
			}
			return prop, nil
		}

		// Boundary 1: shrink to {0, 2}.
		cut := func(active []int) (*partition.Layout, error) {
			return rt.CutLayout([]float64{1, 1})
		}
		prop, err := boundary(10, shrunk, cut)
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
			prop, err := ct.Park()
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
			if prop, err = boundary(20, nil, nil); err != nil {
				return err
			}
			if prop != nil {
				return fmt.Errorf("rank %d: no-change boundary proposed an epoch", c.Rank())
			}
			// Boundary 3: grow back.
			cut = func(active []int) (*partition.Layout, error) {
				return rt.CutLayout([]float64{1, 1, 1})
			}
			if prop, err = boundary(30, all, cut); err != nil {
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
		iv := rt.Layout().Interval(rt.Comm().Rank())
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
