package solver

import (
	"strings"
	"testing"

	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/mesh"
	"stance/internal/order"
)

func testSolver(t *testing.T) *Solver {
	t.Helper()
	g, err := mesh.Honeycomb(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := comm.NewWorld(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { comm.CloseWorld(ws) })
	rt, err := core.New(ws[0], g, core.Config{Order: order.RCB})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(rt, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKernelRegistry(t *testing.T) {
	for _, name := range []string{"figure8", "cg"} {
		if _, err := KernelByName(name); err != nil {
			t.Error(err)
		}
		if !strings.Contains(KernelNames(), name) {
			t.Errorf("KernelNames() = %q, want it to list %q", KernelNames(), name)
		}
	}
	if _, err := KernelByName("nope"); err == nil || !strings.Contains(err.Error(), "figure8") {
		t.Errorf("unknown kernel error %v should list the registry", err)
	}
}

func TestCGKernel(t *testing.T) {
	k, err := KernelByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	// A 4-cycle: every vertex has degree 2.
	xadj := []int32{0, 2, 4, 6, 8}
	adj := []int32{1, 3, 0, 2, 1, 3, 0, 2}
	data := []float64{1, 2, 3, 4}

	// tv[u] = 0.5*(deg*x[u] + Σ neighbors); after the solver's
	// divide-by-degree that is (x + avg(neighbors)) / 2.
	want := []float64{
		0.5 * (2*1 + (2 + 4)),
		0.5 * (2*2 + (1 + 3)),
		0.5 * (2*3 + (2 + 4)),
		0.5 * (2*4 + (1 + 3)),
	}
	tv := make([]float64, 4)
	k.Sweep(data, xadj, adj, tv, 0, 4)
	for u := range want {
		if tv[u] != want[u] {
			t.Errorf("Sweep tv[%d] = %v, want %v", u, tv[u], want[u])
		}
	}

	// The split form must match the contiguous form bit for bit.
	tv2 := make([]float64, 4)
	k.SweepIdx(data, xadj, adj, tv2, []int32{1, 3})
	k.SweepIdx(data, xadj, adj, tv2, []int32{0, 2})
	for u := range want {
		if tv2[u] != tv[u] {
			t.Errorf("SweepIdx tv[%d] = %v, Sweep gave %v", u, tv2[u], tv[u])
		}
	}
}

func TestSetPipelineValidation(t *testing.T) {
	s := testSolver(t)
	if err := s.SetPipeline(-1); err == nil {
		t.Fatal("negative depth accepted")
	}
	if err := s.SetKernel(nil); err == nil {
		t.Fatal("SetKernel(nil) succeeded")
	}
	// SetOverlap is the benchmark-pinned spelling of depth 1 / depth 0;
	// like every setter, the last call wins.
	for _, c := range []struct {
		set  func() error
		want int
	}{
		{func() error { return s.SetPipeline(2) }, 2},
		{func() error { return s.SetOverlap(true) }, 1},
		{func() error { return s.SetOverlap(false) }, 0},
	} {
		if err := c.set(); err != nil {
			t.Fatal(err)
		}
		if s.Pipeline() != c.want {
			t.Fatalf("depth = %d, want %d", s.Pipeline(), c.want)
		}
		// Step is valid at every depth and always returns drained.
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if n := s.Runtime().LiveOps(); n != 0 {
			t.Fatalf("depth %d: %d live ops after Step", c.want, n)
		}
	}
}
