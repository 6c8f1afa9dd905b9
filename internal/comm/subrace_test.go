package comm

import (
	"sync"
	"testing"
)

// TestSubConcurrentDisjoint: two disjoint sub-worlds carved from one
// shared parent run independent traffic concurrently — identical tags,
// shared mailboxes, wildcard receives — and must stay fully isolated.
// Under -race (CI always runs it) this also pins the shared endpoint
// state (mailboxes, stats counters) as data-race-free, which is what
// the job service relies on when it multiplexes sessions on one pool.
func TestSubConcurrentDisjoint(t *testing.T) {
	world, err := Open("inproc", 6, TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	groups := [][]int{{0, 1, 2}, {3, 4, 5}}
	const (
		tagGather = 0xA1
		tagP2P    = 0xA2
		tagSync   = 0xA3
		rounds    = 50
	)
	err = world.SPMD(nil, func(c *Comm) error {
		gi := c.Rank() / 3
		members := groups[gi]
		sub, err := c.Sub(members)
		if err != nil {
			return err
		}
		for r := 0; r < rounds; r++ {
			// Collectives on the same tag in both groups at once.
			parts, err := sub.AllGather(tagGather, []byte{byte(c.Rank()), byte(r)})
			if err != nil {
				return err
			}
			for i, m := range members {
				if len(parts[i]) != 2 || parts[i][0] != byte(m) || parts[i][1] != byte(r) {
					t.Errorf("rank %d round %d: allgather[%d] = %v, want [%d %d] — cross-group leak",
						c.Rank(), r, i, parts[i], m, r)
				}
			}
			// Wildcard receives on each group's rank 0, again on a tag
			// both groups use: the member mask must keep the other
			// group's concurrent sends invisible.
			if sub.Rank() == 0 {
				mask := make([]bool, sub.Size())
				for i := 1; i < sub.Size(); i++ {
					mask[i] = true
				}
				for n := 1; n < sub.Size(); n++ {
					src, data, err := sub.RecvAnyOf(tagP2P, mask)
					if err != nil {
						return err
					}
					if len(data) != 2 || data[0] != byte(members[src]) || data[1] != byte(r) {
						t.Errorf("rank %d round %d: wildcard recv from sub rank %d = %v, want [%d %d]",
							c.Rank(), r, src, data, members[src], r)
					}
					sub.Release(data)
					mask[src] = false
				}
			} else if err := sub.Send(0, tagP2P, []byte{byte(c.Rank()), byte(r)}); err != nil {
				return err
			}
			if err := sub.Barrier(tagSync); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSubConcurrentWrappedWorlds is the job-service carving pattern at
// the comm layer: the parent world never runs an SPMD section of its
// own; disjoint sub-worlds are wrapped as independent worlds and each
// runs its own concurrent SPMD section over the shared endpoints.
func TestSubConcurrentWrappedWorlds(t *testing.T) {
	parent, err := Open("inproc", 5, TransportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	groups := [][]int{{0, 1}, {2, 3, 4}}
	const rounds = 30

	worlds := make([]*World, len(groups))
	for gi, members := range groups {
		subs := make([]*Comm, len(members))
		for i, m := range members {
			sc, err := parent.Comm(m).Sub(members)
			if err != nil {
				t.Fatal(err)
			}
			subs[i] = sc
		}
		worlds[gi] = WrapWorld(subs)
		defer worlds[gi].Close()
	}

	var wg sync.WaitGroup
	errs := make([]error, len(groups))
	for gi := range groups {
		gi := gi
		wg.Add(1)
		go func() {
			defer wg.Done()
			members := groups[gi]
			errs[gi] = worlds[gi].SPMD(nil, func(c *Comm) error {
				for r := 0; r < rounds; r++ {
					parts, err := c.AllGather(0xB1, []byte{byte(members[c.Rank()]), byte(r)})
					if err != nil {
						return err
					}
					for i, m := range members {
						if len(parts[i]) != 2 || parts[i][0] != byte(m) || parts[i][1] != byte(r) {
							t.Errorf("group %d rank %d round %d: allgather[%d] = %v, want [%d %d]",
								gi, c.Rank(), r, i, parts[i], m, r)
						}
					}
				}
				return nil
			})
		}()
	}
	wg.Wait()
	for gi, err := range errs {
		if err != nil {
			t.Errorf("group %d SPMD: %v", gi, err)
		}
	}
	// Sub-world traffic all counted on the one shared parent.
	msgs, _ := parent.Stats()
	if msgs == 0 {
		t.Error("no traffic recorded on the parent world")
	}
}
