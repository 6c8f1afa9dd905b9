package bench

import (
	"context"
	"fmt"
	"testing"

	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/session"
)

// BenchmarkSessionNew times session set-up — open the world, Phase A,
// then per rank the cut, the inspector and the solver — against the
// world size. Phase A runs once per session, so the p axis shows what
// each extra rank costs on top of it.
func BenchmarkSessionNew(b *testing.B) {
	g, err := mesh.GridTriangulated(150, 150, 0.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{4, 64} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := session.New(context.Background(), g, session.Config{Procs: p, Order: order.RCB})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				s.Close()
				b.StartTimer()
			}
		})
	}
}
