package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"stance/internal/comm"
	"stance/internal/order"
)

// Failure injection: when a workstation disappears (its endpoint
// closes), collectives must fail with ErrClosed rather than hang or
// corrupt state — the paper's model tolerates resources leaving only
// between phases, so the runtime's job is to surface the error.

func TestExchangeFailsAfterPeerLoss(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 2)
	rts := make([]*Runtime, 2)
	vecs := make([]*Vector, 2)
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		rts[c.Rank()] = rt
		vecs[c.Rank()] = rt.NewVector()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Workstation 1 dies.
	world.Comm(1).Close()
	// Rank 0's next exchange must fail: the send may still succeed
	// (its own endpoint is alive) but the receive from the dead peer
	// blocks until rank 0's endpoint is closed too. Use a watchdog
	// close to model failure detection.
	var wg sync.WaitGroup
	wg.Add(1)
	var exchErr error
	go func() {
		defer wg.Done()
		exchErr = rts[0].Exchange(vecs[0])
	}()
	time.Sleep(20 * time.Millisecond)
	world.Comm(0).Close()
	wg.Wait()
	if exchErr == nil {
		t.Fatal("exchange with a dead peer succeeded")
	}
	if !errors.Is(exchErr, comm.ErrClosed) {
		t.Fatalf("exchange error = %v, want ErrClosed", exchErr)
	}
}

func TestRemapFailsCleanlyOnClosedWorld(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 2)
	rts := make([]*Runtime, 2)
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		rt.NewVector()
		rts[c.Rank()] = rt
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	world.Close()
	if _, err := rts[0].Remap([]float64{3, 1}); err == nil {
		t.Fatal("remap on a closed world succeeded")
	}
}

func TestGatherGlobalFailsOnClosedWorld(t *testing.T) {
	g := testMesh(t)
	world := openWorld(t, 2)
	rts := make([]*Runtime, 2)
	vecs := make([]*Vector, 2)
	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{})
		if err != nil {
			return err
		}
		rts[c.Rank()] = rt
		vecs[c.Rank()] = rt.NewVector()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	world.Close()
	if _, err := rts[0].GatherGlobal(0, vecs[0]); err == nil {
		t.Fatal("gather on a closed world succeeded")
	}
}
