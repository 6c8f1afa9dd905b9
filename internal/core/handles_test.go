package core

import (
	"math"
	"math/rand"
	"testing"

	"stance/internal/comm"
	"stance/internal/order"
	"stance/internal/partition"
)

// The multi-handle property test: random scripts of concurrent
// executor operations — random vector subsets, random Exchange/ScatterAdd
// kinds, random Wait interleavings, a mid-script Remap and a cross-world
// shrink/grow Rebind — must be bit-exact against the synchronous
// reference executing the same ops, coalesced, in start order. The
// handle run starts one Exchange per vector of an op and runs each
// ScatterAdd synchronously while those handles are live. Ops in one
// round touch disjoint vector sets, so the dependency tracker admits
// them all and any drain order is semantically equivalent; the test
// pins that the implementation actually delivers that equivalence down
// to the bit pattern.

const nScriptVecs = 4

// scriptOp is one operation of a round: a disjoint set of vectors (a
// single op coalesces them) replayed as Exchange or ScatterAdd.
type scriptOp struct {
	vecs    []int
	scatter bool
}

type scriptRound struct {
	ops []scriptOp
	// wait is the async drain order, a permutation of ops indices.
	wait []int
}

type handleScript struct {
	rounds []scriptRound
	remapW []float64
}

// genHandleScript derives the whole script from the seed before any
// rank runs, so both execution modes (and every rank) follow the same
// program in the same SPMD order.
func genHandleScript(seed int64, p, rounds int) handleScript {
	rng := rand.New(rand.NewSource(seed))
	sc := handleScript{rounds: make([]scriptRound, rounds)}
	for r := range sc.rounds {
		// Partition a random prefix of a vector permutation into ops of
		// one or two vectors each.
		perm := rng.Perm(nScriptVecs)
		take := 1 + rng.Intn(nScriptVecs)
		var ops []scriptOp
		for i := 0; i < take; {
			w := 1 + rng.Intn(2)
			if i+w > take {
				w = take - i
			}
			ops = append(ops, scriptOp{
				vecs:    perm[i : i+w],
				scatter: rng.Intn(2) == 1,
			})
			i += w
		}
		sc.rounds[r] = scriptRound{ops: ops, wait: rng.Perm(len(ops))}
	}
	sc.remapW = make([]float64, p)
	for i := range sc.remapW {
		sc.remapW[i] = 0.5 + rng.Float64()
	}
	return sc
}

// runHandleScript executes the script on a p-rank world, either with
// Exchange handles drained in the script's wait order (async) or with
// the synchronous executor in start order, snapshotting every rank's
// full vector data after each round.
func runHandleScript(t *testing.T, p int, sc handleScript, async bool) [][][]float64 {
	t.Helper()
	g := testMesh(t)
	world := openWorld(t, p)

	mu := make(chan struct{}, 1)
	mu <- struct{}{}
	snaps := make([][][]float64, len(sc.rounds))
	for i := range snaps {
		snaps[i] = make([][]float64, p)
	}
	snapshot := func(rank, step int, vecs []*Vector) {
		<-mu
		var all []float64
		for _, v := range vecs {
			all = append(all, append([]float64(nil), v.Data...)...)
		}
		snaps[step][rank] = all
		mu <- struct{}{}
	}

	full := make([]int, p)
	for i := range full {
		full[i] = i
	}
	survivors := full[:p-1] // the last rank retires mid-script
	wFull := make([]float64, p)
	for i := range wFull {
		wFull[i] = 1
	}
	wShrunk := wFull[:p-1]

	err := world.SPMD(nil, func(c *comm.Comm) error {
		rt, err := New(c, g, Config{Order: order.RCB})
		if err != nil {
			return err
		}
		vecs := make([]*Vector, nScriptVecs)
		for i := range vecs {
			off := float64(i) * 0.375
			vecs[i] = rt.NewVector()
			vecs[i].SetByGlobal(func(gid int64) float64 { return initValue(gid) + off })
		}
		opVecs := func(op scriptOp) []*Vector {
			vs := make([]*Vector, len(op.vecs))
			for i, vi := range op.vecs {
				vs[i] = vecs[vi]
			}
			return vs
		}

		// mix deterministically folds ghost values into owned elements
		// and refreshes the ghost section, so every round depends on the
		// previous round's exchanges and feeds fresh scatter payloads.
		mix := func() {
			nLocal := rt.LocalN()
			xadj, adj := rt.LocalAdj()
			for vi, v := range vecs {
				scale := 0.0625 * float64(vi+1)
				for u := 0; u < nLocal; u++ {
					sum := 0.0
					for k := xadj[u]; k < xadj[u+1]; k++ {
						sum += v.Data[adj[k]]
					}
					v.Data[u] = v.Data[u]*0.5 + sum*scale
				}
				for j := nLocal; j < len(v.Data); j++ {
					v.Data[j] = v.Data[j]*0.25 + float64(vi+1)
				}
			}
		}

		runRound := func(step int) error {
			rd := sc.rounds[step]
			if async {
				hs := make([][]*OpHandle, len(rd.ops))
				for i, op := range rd.ops {
					if op.scatter {
						if err := rt.ScatterAddAll(opVecs(op)...); err != nil {
							return err
						}
						continue
					}
					for _, v := range opVecs(op) {
						h, err := rt.ExchangeStart(v)
						if err != nil {
							return err
						}
						hs[i] = append(hs[i], h)
					}
				}
				for _, i := range rd.wait {
					for _, h := range hs[i] {
						if err := h.Wait(); err != nil {
							return err
						}
					}
				}
			} else {
				for _, op := range rd.ops {
					var err error
					if op.scatter {
						err = rt.ScatterAddAll(opVecs(op)...)
					} else {
						err = rt.ExchangeAll(opVecs(op)...)
					}
					if err != nil {
						return err
					}
				}
			}
			mix()
			snapshot(c.Rank(), step, vecs)
			return nil
		}

		rebindTo := func(oldL *partition.Layout, oldActive []int, newL *partition.Layout, newActive []int) error {
			var sub *comm.Comm
			for _, r := range newActive {
				if r == c.Rank() {
					if sub, err = c.Sub(newActive); err != nil {
						return err
					}
					break
				}
			}
			_, err := rt.Rebind(Rebind{
				Carrier: c, Sub: sub,
				Old: oldL, New: newL,
				OldProcs: oldActive, NewProcs: newActive,
			})
			if err == nil && !rt.Parked() {
				checkSplit(t, rt, "after Rebind")
			}
			return err
		}

		for r := 0; r < 3; r++ {
			if err := runRound(r); err != nil {
				return err
			}
		}
		if _, err := rt.Remap(sc.remapW); err != nil {
			return err
		}
		for r := 3; r < 6; r++ {
			if err := runRound(r); err != nil {
				return err
			}
		}
		// Shrink onto the survivors; the last rank parks and sits out
		// two rounds, then the world grows back and it rejoins.
		fullLayout := rt.Layout()
		shrunkLayout, err := rt.CutLayout(wShrunk)
		if err != nil {
			return err
		}
		if err := rebindTo(fullLayout, full, shrunkLayout, survivors); err != nil {
			return err
		}
		for r := 6; r < 8; r++ {
			if rt.Parked() {
				continue
			}
			if err := runRound(r); err != nil {
				return err
			}
		}
		if fullLayout, err = rt.CutLayout(wFull); err != nil {
			return err
		}
		if err := rebindTo(shrunkLayout, survivors, fullLayout, full); err != nil {
			return err
		}
		return runRound(len(sc.rounds) - 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

// TestHandleScriptsMatchSyncBitForBit drives random multi-handle op
// scripts through both executors and requires bit-identical snapshots
// at every round on every rank.
func TestHandleScriptsMatchSyncBitForBit(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, p := range []int{2, 4} {
			sc := genHandleScript(seed, p, 9)
			asyncRun := runHandleScript(t, p, sc, true)
			syncRun := runHandleScript(t, p, sc, false)
			for step := range asyncRun {
				for rank := range asyncRun[step] {
					a, b := asyncRun[step][rank], syncRun[step][rank]
					if len(a) != len(b) {
						t.Fatalf("seed %d p=%d step %d rank %d: data lengths differ: %d vs %d",
							seed, p, step, rank, len(a), len(b))
					}
					for i := range a {
						if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
							t.Fatalf("seed %d p=%d step %d rank %d: element %d = %v (handles) vs %v (sync); must be bit-exact",
								seed, p, step, rank, i, a[i], b[i])
						}
					}
				}
			}
		}
	}
}
