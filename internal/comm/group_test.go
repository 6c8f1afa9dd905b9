package comm

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"stance/internal/vtime"
)

func TestTopologyValidation(t *testing.T) {
	if _, err := NewTopology(nil); err == nil {
		t.Error("empty topology should fail")
	}
	if _, err := NewTopology([]int{0, -1}); err == nil {
		t.Error("negative group id should fail")
	}
	if _, err := NewTopology([]int{0, 2}); err == nil {
		t.Error("gap in group ids should fail")
	}
	topo, err := NewTopology([]int{1, 0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if topo.P() != 5 || topo.Groups() != 2 {
		t.Fatalf("P=%d Groups=%d, want 5/2", topo.P(), topo.Groups())
	}
	if !slices.Equal(topo.Members(0), []int{1, 3}) || !slices.Equal(topo.Members(1), []int{0, 2, 4}) {
		t.Errorf("members = %v,%v, want [1 3],[0 2 4]", topo.Members(0), topo.Members(1))
	}
	if !topo.SameGroup(0, 2) || topo.SameGroup(0, 1) {
		t.Error("SameGroup misclassifies")
	}
	if _, err := ContiguousGroups(4, 5); err == nil {
		t.Error("more groups than ranks should fail")
	}
	ct, err := ContiguousGroups(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 1, 1} // first p%groups groups take the extra rank
	for r, g := range want {
		if ct.GroupOf(r) != g {
			t.Fatalf("ContiguousGroups(5,2) = %v at rank %d, want %v", ct.GroupOf(r), r, want)
		}
	}
}

func TestInterModelRequiresTopology(t *testing.T) {
	opts := TransportOptions{InterModel: &Model{Latency: time.Millisecond}}
	if err := opts.Validate(); err == nil {
		t.Error("InterModel without Topology should fail validation")
	}
	topo, err := ContiguousGroups(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open("inproc", 4, TransportOptions{Topology: topo}); err == nil {
		t.Error("topology over 2 ranks should not open a 4-rank world")
	}
}

// TestHierarchicalPricingExact: on a simulated clock, a two-level
// model prices every message exactly — an intra-group send costs the
// base model, a cross-group send the inter-group model, and nothing
// else moves the clock.
func TestHierarchicalPricingExact(t *testing.T) {
	topo, err := NewTopology([]int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	clk := vtime.NewSim()
	w, err := Open("inproc", 4, TransportOptions{
		Model:      &Model{Latency: time.Millisecond},
		InterModel: &Model{Latency: 10 * time.Millisecond},
		Topology:   topo,
		Clock:      clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	start := clk.Now()
	err = w.SPMD(nil, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			// One intra-group send (1 ms), one inter-group send (10 ms),
			// serialized on the sender.
			if err := c.Send(1, 7, []byte("fast")); err != nil {
				return err
			}
			return c.Send(2, 7, []byte("slow"))
		case 1, 2:
			_, err := c.Recv(0, 7)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := clk.Now().Sub(start); got != 11*time.Millisecond {
		t.Errorf("virtual elapsed = %v, want exactly 11ms (1ms intra + 10ms inter)", got)
	}
	msgs, bs := w.InterGroupStats()
	if msgs != 1 || bs != 4 {
		t.Errorf("inter-group stats = %d msgs / %d bytes, want 1/4", msgs, bs)
	}
	if m, _ := w.Comm(0).InterStats(); m != 1 {
		t.Errorf("rank 0 inter msgs = %d, want 1", m)
	}
	if m, _ := w.Comm(1).InterStats(); m != 0 {
		t.Errorf("rank 1 inter msgs = %d, want 0", m)
	}
}

// TestHierarchicalMulticastPricing: a multicast spanning groups pays
// each medium once when it supports multicast — and the inter-group
// counters see one crossing per remote destination.
func TestHierarchicalMulticastPricing(t *testing.T) {
	topo, err := NewTopology([]int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	clk := vtime.NewSim()
	w, err := Open("inproc", 4, TransportOptions{
		Model:      &Model{Latency: time.Millisecond, Multicast: true},
		InterModel: &Model{Latency: 10 * time.Millisecond, Multicast: true},
		Topology:   topo,
		Clock:      clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	start := clk.Now()
	payload := []byte{0xab}
	err = w.SPMD(nil, func(c *Comm) error {
		if c.Rank() == 0 {
			// One charge on the fast medium (rank 1) + one on the slow
			// backbone (ranks 2 and 3 share the multicast): 11 ms.
			return c.Multicast([]int{1, 2, 3}, 9, payload)
		}
		_, err := c.Recv(0, 9)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := clk.Now().Sub(start); got != 11*time.Millisecond {
		t.Errorf("virtual elapsed = %v, want exactly 11ms (one charge per medium)", got)
	}
	msgs, _ := w.InterGroupStats()
	if msgs != 2 {
		t.Errorf("inter-group crossings = %d, want 2 (one per remote destination)", msgs)
	}
}

// TestUniformTopologyMatchesFlat: with a topology but no InterModel,
// pricing and virtual timing are bit-identical to the flat world — the
// hierarchy paths must be invisible on a uniform network.
func TestUniformTopologyMatchesFlat(t *testing.T) {
	run := func(topo *Topology) time.Duration {
		clk := vtime.NewSim()
		w, err := Open("inproc", 4, TransportOptions{
			Model:    &Model{Latency: time.Millisecond, Bandwidth: 1e6},
			Topology: topo,
			Clock:    clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		start := clk.Now()
		err = w.SPMD(nil, func(c *Comm) error {
			parts, err := c.AllGather(3, []byte{byte(c.Rank())})
			if err != nil {
				return err
			}
			for i := range parts {
				if parts[i][0] != byte(i) {
					return fmt.Errorf("rank %d: allgather[%d] = %v", c.Rank(), i, parts[i])
				}
			}
			return c.Barrier(4)
		})
		if err != nil {
			t.Fatal(err)
		}
		return clk.Now().Sub(start)
	}
	topo, err := ContiguousGroups(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	flat, hier := run(nil), run(topo)
	if flat != hier {
		t.Errorf("uniform-model wall time differs: flat %v vs topology %v", flat, hier)
	}
}

// TestHybridTransport: the hybrid transport routes intra-group
// messages through shared memory — the wire counters must only ever
// see the inter-group traffic — while collectives behave exactly as on
// the flat transports.
func TestHybridTransport(t *testing.T) {
	if _, err := Open("hybrid", 4, TransportOptions{}); err == nil {
		t.Fatal("hybrid without a topology should fail")
	}
	topo, err := ContiguousGroups(4, 2) // groups {0,1} and {2,3}
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open("hybrid", 4, TransportOptions{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.SPMD(nil, func(c *Comm) error {
		// Ring exchange: 0→1 and 2→3 stay inside their groups, 1→2 and
		// 3→0 cross. Payloads prove delivery on both paths.
		next, prev := (c.Rank()+1)%4, (c.Rank()+3)%4
		msg := []byte(fmt.Sprintf("from-%d", c.Rank()))
		if err := c.Send(next, 5, msg); err != nil {
			return err
		}
		got, err := c.Recv(prev, 5)
		if err != nil {
			return err
		}
		defer c.Release(got)
		if want := fmt.Sprintf("from-%d", prev); !bytes.Equal(got, []byte(want)) {
			return fmt.Errorf("rank %d: got %q, want %q", c.Rank(), got, want)
		}
		// Collectives span both paths.
		parts, err := c.AllGather(6, []byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		for i := range parts {
			if len(parts[i]) != 1 || parts[i][0] != byte(i) {
				return fmt.Errorf("rank %d: allgather[%d] = %v", c.Rank(), i, parts[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs, bs := w.InterGroupStats()
	if msgs < 2 || bs == 0 {
		t.Errorf("inter-group stats = %d msgs / %d bytes, want at least the 2 ring crossings", msgs, bs)
	}
	stats, ok := w.TransportStats()
	if !ok {
		t.Fatal("hybrid world should report wire counters")
	}
	// Every socket message was an inter-group message: the ring's two
	// crossings plus the collectives' — never the intra-group traffic.
	if stats.NTx != msgs {
		t.Errorf("wire NTx = %d, inter-group msgs = %d: intra-group traffic leaked onto the sockets", stats.NTx, msgs)
	}
	if msgsAll, _ := w.Stats(); msgsAll <= msgs {
		t.Errorf("total msgs %d should exceed inter-group msgs %d", msgsAll, msgs)
	}
}

// TestHybridRecvTimeoutAndKill: mailbox-level features — timed
// receives and crash injection — survive the hybrid composition.
func TestHybridRecvTimeoutAndKill(t *testing.T) {
	topo, err := ContiguousGroups(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open("hybrid", 2, TransportOptions{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Comm(0).RecvTimeout(1, 3, time.Millisecond); err == nil {
		t.Error("timed receive with no sender should time out")
	}
	if err := KillEndpoint(w.Comm(1)); err != nil {
		t.Errorf("hybrid endpoints should support kill injection: %v", err)
	}
	if err := w.Comm(1).Send(0, 3, nil); err == nil {
		t.Error("send from a killed endpoint should fail")
	}
}
