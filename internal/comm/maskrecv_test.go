package comm

import (
	"bytes"
	"testing"
)

func TestRecvAnyOfRespectsMask(t *testing.T) {
	for name, w := range worlds(t, 3) {
		t.Run(name, func(t *testing.T) {
			// Both peers send; the masked receive must return rank 2's
			// message even though rank 1's is (or may be) already
			// queued ahead of it.
			if err := w.Comm(1).Send(0, 21, []byte{1}); err != nil {
				t.Fatal(err)
			}
			if err := w.Comm(2).Send(0, 21, []byte{2}); err != nil {
				t.Fatal(err)
			}
			src, data, err := w.Comm(0).RecvAnyOf(21, []bool{false, false, true})
			if err != nil {
				t.Fatal(err)
			}
			if src != 2 || data[0] != 2 {
				t.Fatalf("masked receive returned src %d payload %v", src, data)
			}
			// Rank 1's message is still queued for a later receive.
			src, data, err = w.Comm(0).RecvAnyOf(21, []bool{false, true, false})
			if err != nil || src != 1 || data[0] != 1 {
				t.Fatalf("queued message lost: src %d payload %v err %v", src, data, err)
			}
		})
	}
}

func TestRecvAnyOfKeepsFutureMessagesQueued(t *testing.T) {
	w := open(t, "inproc", 2, TransportOptions{})
	// Rank 1 runs two "operations" ahead: both messages sit in rank
	// 0's mailbox. Masked receives must consume them strictly in FIFO
	// order, one per operation.
	for i := byte(0); i < 2; i++ {
		if err := w.Comm(1).Send(0, 22, []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	mask := []bool{false, true}
	for i := byte(0); i < 2; i++ {
		src, data, err := w.Comm(0).RecvAnyOf(22, mask)
		if err != nil || src != 1 || data[0] != i {
			t.Fatalf("op %d: src %d payload %v err %v", i, src, data, err)
		}
	}
}

func TestTakeAnyOfPoll(t *testing.T) {
	w := open(t, "inproc", 2, TransportOptions{})
	var b Batch
	if err := w.Comm(0).TakeAnyOf(23, nil, 0, &b); len(b.Srcs) > 0 || err != nil {
		t.Fatalf("empty poll: %v, err=%v", b.Srcs, err)
	}
	if err := w.Comm(1).Send(0, 23, []byte("x")); err != nil {
		t.Fatal(err)
	}
	err := w.Comm(0).TakeAnyOf(23, []bool{false, true}, 0, &b)
	if err != nil || len(b.Srcs) != 1 || b.Srcs[0] != 1 || string(b.Data[0]) != "x" {
		t.Fatalf("poll after send: srcs=%v data=%q err=%v", b.Srcs, b.Data, err)
	}
	// The wrong mask leaves a queued message untouched.
	if err := w.Comm(1).Send(0, 23, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if w.Comm(0).TakeAnyOf(23, []bool{true, false}, 0, &b); len(b.Srcs) > 0 {
		t.Fatal("poll returned a message the mask excluded")
	}
}

func TestRecvInto(t *testing.T) {
	for name, w := range worlds(t, 2) {
		t.Run(name, func(t *testing.T) {
			payload := []byte{1, 2, 3, 4, 5}
			if err := w.Comm(0).Send(1, 24, payload); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 8)
			n, err := w.Comm(1).RecvInto(0, 24, buf)
			if err != nil || n != 5 {
				t.Fatalf("RecvInto = %d, %v", n, err)
			}
			if !bytes.Equal(buf[:n], payload) {
				t.Fatalf("RecvInto copied %v", buf[:n])
			}
			// A payload that does not fit is an error.
			if err := w.Comm(0).Send(1, 24, make([]byte, 16)); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Comm(1).RecvInto(0, 24, buf); err == nil {
				t.Fatal("oversized payload accepted")
			}
		})
	}
}

func TestReleaseRecyclesBuffers(t *testing.T) {
	w := open(t, "inproc", 2, TransportOptions{})
	payload := make([]byte, 512)
	// After a Release, the next send into the same mailbox reuses the
	// returned buffer (same backing array).
	if err := w.Comm(0).Send(1, 25, payload); err != nil {
		t.Fatal(err)
	}
	data, err := w.Comm(1).Recv(0, 25)
	if err != nil {
		t.Fatal(err)
	}
	first := &data[:1][0]
	w.Comm(1).Release(data)
	if err := w.Comm(0).Send(1, 25, payload); err != nil {
		t.Fatal(err)
	}
	data, err = w.Comm(1).Recv(0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if &data[:1][0] != first {
		t.Error("released buffer was not reused by the next send")
	}
}

func TestInprocSteadyStateAllocFree(t *testing.T) {
	// The executor acceptance criterion at the transport level: once
	// the pool is warm, a send/receive/Release round trip on the
	// inproc transport touches the allocator zero times.
	w := open(t, "inproc", 2, TransportOptions{})
	payload := make([]byte, 1024)
	mask := []bool{true, true}
	op := func() {
		if err := w.Comm(0).Send(1, 26, payload); err != nil {
			t.Fatal(err)
		}
		_, data, err := w.Comm(1).RecvAnyOf(26, mask)
		if err != nil {
			t.Fatal(err)
		}
		w.Comm(1).Release(data)
	}
	for i := 0; i < 8; i++ {
		op() // warm the pool and the per-(src,tag) queue
	}
	if n := testing.AllocsPerRun(200, op); n > 0 {
		t.Errorf("steady-state send/recv/release allocates %v times per op, want 0", n)
	}
}
