package core

import (
	"fmt"
	"testing"

	"stance/internal/comm"
	"stance/internal/order"
)

func TestExchangeAllMatchesSeparateExchanges(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 3)
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		a := rt.NewVector()
		b := rt.NewVector()
		cv := rt.NewVector()
		a.SetByGlobal(func(gid int64) float64 { return float64(gid) })
		b.SetByGlobal(func(gid int64) float64 { return float64(-gid) })
		cv.SetByGlobal(func(gid int64) float64 { return float64(gid * gid) })
		// Reference: separate exchanges into copies.
		ra := rt.NewVector()
		rb := rt.NewVector()
		rc := rt.NewVector()
		copy(ra.Data, a.Data)
		copy(rb.Data, b.Data)
		copy(rc.Data, cv.Data)
		if err := rt.Exchange(ra); err != nil {
			return err
		}
		if err := rt.Exchange(rb); err != nil {
			return err
		}
		if err := rt.Exchange(rc); err != nil {
			return err
		}
		if err := rt.ExchangeAll(a, b, cv); err != nil {
			return err
		}
		for i := range a.Data {
			if a.Data[i] != ra.Data[i] || b.Data[i] != rb.Data[i] || cv.Data[i] != rc.Data[i] {
				return fmt.Errorf("coalesced exchange diverged at %d", i)
			}
		}
		// Message count: the coalesced round used one message per
		// peer, not one per vector per peer.
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeAllEdgeCases(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 1)
	rt, err := New(world.Comm(0), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.ExchangeAll(); err != nil {
		t.Errorf("empty ExchangeAll: %v", err)
	}
	v := rt.NewVector()
	if err := rt.ExchangeAll(v); err != nil {
		t.Errorf("single-vector ExchangeAll: %v", err)
	}
	rt2, err := New(world.Comm(0), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	foreign := rt2.NewVector()
	if err := rt.ExchangeAll(v, foreign); err == nil {
		t.Error("foreign vector accepted")
	}
}

func TestCoalescingSavesMessages(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 2)
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		a, b := rt.NewVector(), rt.NewVector()
		before, _ := c.Stats()
		if err := rt.ExchangeAll(a, b); err != nil {
			return err
		}
		afterCoalesced, _ := c.Stats()
		if err := rt.Exchange(a); err != nil {
			return err
		}
		if err := rt.Exchange(b); err != nil {
			return err
		}
		afterSeparate, _ := c.Stats()
		coalesced := afterCoalesced - before
		separate := afterSeparate - afterCoalesced
		if coalesced*2 != separate {
			return fmt.Errorf("coalesced round sent %d messages, separate rounds %d (want half)",
				coalesced, separate)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
