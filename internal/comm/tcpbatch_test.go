package comm

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// TestTCPBatchingCoalesces pins the tx batching loop: with a flush
// linger configured, a burst of small sends rides far fewer framed
// writes than messages (the gofast pattern), and every message still
// arrives in order.
func TestTCPBatchingCoalesces(t *testing.T) {
	w, err := Open("tcp", 2, TransportOptions{FlushPeriod: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := w.Comm(0).Send(1, 7, []byte{byte(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		got, err := w.Comm(1).Recv(0, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("message %d: got %v", i, got)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st, ok := w.Comm(0).TransportStats()
	if !ok {
		t.Fatal("tcp endpoint reports no transport stats")
	}
	if st.NTx != n {
		t.Errorf("n_tx = %d, want %d", st.NTx, n)
	}
	if st.NFlushes >= n/2 {
		t.Errorf("n_flushes = %d for %d sends: the flush linger did not coalesce", st.NFlushes, n)
	}
	if st.NTxByte == 0 || st.NRxByte != 0 {
		t.Errorf("rank 0 wire bytes = %d tx / %d rx, want tx > 0, rx = 0 (it only sent)", st.NTxByte, st.NRxByte)
	}
}

// TestTCPBatchBytesOneIsUnbatched pins the benchmark baseline: a
// 1-byte batch cap degrades to one framed write per message, the
// behavior the batched benchmarks compare against.
func TestTCPBatchBytesOneIsUnbatched(t *testing.T) {
	w, err := Open("tcp", 2, TransportOptions{BatchBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 50
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := w.Comm(0).Send(1, 3, []byte("msg")); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		if _, err := w.Comm(1).Recv(0, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st, _ := w.Comm(0).TransportStats()
	if st.NFlushes != n {
		t.Errorf("n_flushes = %d, want %d (one write per message at BatchBytes 1)", st.NFlushes, n)
	}
}

// TestTCPCompression pins per-batch compression end to end: a
// compressible payload crosses the socket intact under each codec, and
// the sender's wire bytes come to less than the payload — proof the
// frame went out compressed, not just tagged.
func TestTCPCompression(t *testing.T) {
	for _, codec := range []string{"flate", "gzip"} {
		t.Run(codec, func(t *testing.T) {
			w, err := Open("tcp", 2, TransportOptions{Compression: codec})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			payload := bytes.Repeat([]byte("highly compressible "), 512)
			if err := w.Comm(0).Send(1, 4, payload); err != nil {
				t.Fatal(err)
			}
			got, err := w.Comm(1).Recv(0, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("payload corrupted through %s: %d bytes, want %d", codec, len(got), len(payload))
			}
			st, _ := w.Comm(0).TransportStats()
			if st.NTxByte >= int64(len(payload)) {
				t.Errorf("%d wire bytes for a %d-byte compressible payload: codec %s did not compress",
					st.NTxByte, len(payload), codec)
			}
		})
	}
}

// TestTCPOutboxBackpressure pins the bounded outbox: a sender that
// outruns the wire blocks at the high-water mark, the stall is counted,
// and nothing is lost.
func TestTCPOutboxBackpressure(t *testing.T) {
	w, err := Open("tcp", 2, TransportOptions{
		OutboxHighWater: 2,
		FlushPeriod:     20 * time.Millisecond, // hold the writer so the queue fills
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 20
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := w.Comm(0).Send(1, 6, []byte{byte(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		got, err := w.Comm(1).Recv(0, 6)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("message %d arrived as %d: backpressure broke FIFO", i, got[0])
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st, _ := w.Comm(0).TransportStats()
	if st.NTxBackpressure == 0 {
		t.Error("n_tx_backpressure = 0: a 2-deep outbox absorbed 20 sends without a stall")
	}
}

// TestTCPHeartbeatDetectsKilledPeer is the transport-level liveness
// contract: a killed endpoint keeps its sockets open (a crashed
// process does not FIN its peers), so survivors must detect the death
// by missed heartbeats — and blocked receives from the dead peer fail
// with ErrPeerDead, which unwraps to ErrTimeout for the checkpoint
// layer's failure detector.
func TestTCPHeartbeatDetectsKilledPeer(t *testing.T) {
	w, err := Open("tcp", 3, TransportOptions{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatMiss:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Traffic sent before the crash must stay receivable: the failure
	// model is crash-stop, not message revocation.
	if err := w.Comm(1).Send(0, 8, []byte("pre-crash")); err != nil {
		t.Fatal(err)
	}
	if got, err := w.Comm(0).Recv(1, 8); err != nil || string(got) != "pre-crash" {
		t.Fatalf("pre-crash message: %q, %v", got, err)
	}

	if err := KillEndpoint(w.Comm(1)); err != nil {
		t.Fatal(err)
	}
	// The killed endpoint itself fails fast on both sides of the API.
	if err := w.Comm(1).Send(0, 8, []byte("ghost")); !errors.Is(err, ErrKilled) {
		t.Errorf("send from killed endpoint: %v, want ErrKilled", err)
	}
	if _, err := w.Comm(1).Recv(0, 8); !errors.Is(err, ErrKilled) {
		t.Errorf("recv on killed endpoint: %v, want ErrKilled", err)
	}

	// Survivors detect the silence. 3 misses at 10ms should land well
	// inside a second even on a loaded runner.
	start := time.Now()
	_, err = w.Comm(0).Recv(1, 9)
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("recv from dead peer: %v, want ErrPeerDead", err)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("ErrPeerDead does not unwrap to ErrTimeout; ckpt detection would not see it")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("death detected after %v", d)
	}
	st, _ := w.Comm(0).TransportStats()
	if st.NDroppedHB < 3 {
		t.Errorf("n_dropped_hb = %d, want >= 3 missed heartbeats behind the declaration", st.NDroppedHB)
	}
	// The two survivors keep talking.
	if err := w.Comm(2).Send(0, 11, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if got, err := w.Comm(0).Recv(2, 11); err != nil || string(got) != "alive" {
		t.Fatalf("survivor traffic after the death: %q, %v", got, err)
	}
}

// TestTCPHeartbeatQuietWorldStaysUp pins the other half of liveness:
// an idle world with heartbeats on must not false-positive — the
// heartbeat traffic itself keeps every read deadline fed. The miss
// budget (100ms) is wide enough that a reader starved of CPU for a few
// scheduler slices on a loaded machine is not a death; a 20ms budget
// once declared a live peer dead under -race next to other work.
func TestTCPHeartbeatQuietWorldStaysUp(t *testing.T) {
	const interval, miss = 10 * time.Millisecond, 10
	w, err := Open("tcp", 2, TransportOptions{
		HeartbeatInterval: interval,
		HeartbeatMiss:     miss,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Stay idle across ten miss budgets: a hundred intervals that only
	// heartbeats fill.
	time.Sleep(10 * miss * interval)
	if err := w.Comm(0).Send(1, 5, []byte("still here")); err != nil {
		t.Fatal(err)
	}
	if got, err := w.Comm(1).Recv(0, 5); err != nil || string(got) != "still here" {
		t.Fatalf("exchange after idle period: %q, %v", got, err)
	}
}

// TestTCPSendRejectsReservedTag keeps application traffic out of the
// heartbeat tag: the liveness protocol owns it.
func TestTCPSendRejectsReservedTag(t *testing.T) {
	w := open(t, "tcp", 2, TransportOptions{})
	if err := w.Comm(0).Send(1, hbTag, []byte("impostor")); err == nil {
		t.Error("send on the reserved heartbeat tag succeeded")
	}
}

// TestTCPSubWorldSharesRootMesh pins the multiplexing design: a
// sub-world's traffic flows over its root world's socket pair (one
// mesh per world), so the sub-endpoint reports the root endpoint's
// wire counters.
func TestTCPSubWorldSharesRootMesh(t *testing.T) {
	w, err := Open("tcp", 4, TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	subs := make([]*Comm, 2)
	for i, r := range []int{1, 3} {
		sc, err := w.Comm(r).Sub([]int{1, 3})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sc
	}
	if err := subs[0].Send(1, 12, []byte("via root mesh")); err != nil {
		t.Fatal(err)
	}
	if got, err := subs[1].Recv(0, 12); err != nil || string(got) != "via root mesh" {
		t.Fatalf("sub-world exchange: %q, %v", got, err)
	}
	rootStats, ok := w.Comm(1).TransportStats()
	if !ok || rootStats.NTx != 1 {
		t.Errorf("root endpoint n_tx = %d (ok=%v), want 1: sub-world send did not ride the root mesh", rootStats.NTx, ok)
	}
	subStats, ok := subs[0].TransportStats()
	if !ok || subStats != rootStats {
		t.Errorf("sub-endpoint stats %+v != root stats %+v", subStats, rootStats)
	}
}
