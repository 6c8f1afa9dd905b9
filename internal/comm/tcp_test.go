package comm

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestTCPMulticastFallsBackToUnicast(t *testing.T) {
	// The TCP transport has no hardware multicast; Multicast must
	// still deliver everywhere and count one message per destination.
	w := open(t, "tcp", 4, TransportOptions{})
	if err := w.Comm(0).Multicast([]int{1, 2, 3}, 5, []byte("fan")); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 3; r++ {
		got, err := w.Comm(r).Recv(0, 5)
		if err != nil || string(got) != "fan" {
			t.Fatalf("rank %d: %q, %v", r, got, err)
		}
	}
	msgs, bytes := w.Comm(0).Stats()
	if msgs != 3 || bytes != 9 {
		t.Errorf("stats = %d msgs / %d bytes, want 3/9 (per-destination accounting)", msgs, bytes)
	}
}

func TestTCPFrameLimit(t *testing.T) {
	w := open(t, "tcp", 2, TransportOptions{})
	huge := make([]byte, maxFrame+1)
	if err := w.Comm(0).Send(1, 1, huge); err == nil {
		t.Error("over-limit frame accepted")
	}
}

func TestTCPCloseFailsPendingRecv(t *testing.T) {
	w := open(t, "tcp", 2, TransportOptions{})
	done := make(chan error, 1)
	go func() {
		_, err := w.Comm(0).Recv(1, 9)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	w.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
}

func TestTCPSendAfterCloseFails(t *testing.T) {
	w := open(t, "tcp", 2, TransportOptions{})
	w.Close()
	if err := w.Comm(0).Send(1, 1, []byte("late")); err == nil {
		t.Error("send after close succeeded")
	}
}

func TestTCPCollectivesUnderConcurrentTraffic(t *testing.T) {
	// Collectives interleaved with point-to-point chatter on other
	// tags must not cross-talk.
	w := open(t, "tcp", 3, TransportOptions{})
	err := w.SPMD(nil, func(c *Comm) error {
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() + 2) % c.Size()
		for round := 0; round < 20; round++ {
			if err := c.Send(next, 77, []byte{byte(round)}); err != nil {
				return err
			}
			sum, err := c.AllReduceF64(78, []float64{float64(c.Rank())}, func(a, b float64) float64 { return a + b })
			if err != nil {
				return err
			}
			if sum[0] != 3 {
				return fmt.Errorf("round %d: allreduce = %v", round, sum[0])
			}
			got, err := c.Recv(prev, 77)
			if err != nil {
				return err
			}
			if got[0] != byte(round) {
				return fmt.Errorf("round %d: ring got %d", round, got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
