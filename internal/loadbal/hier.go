package loadbal

import (
	"fmt"
	"slices"

	"stance/internal/comm"
	"stance/internal/ctl"
)

// Leader-aggregated report exchange for two-level worlds (paper
// Section 4's nonuniform environment). The flat decentralized check
// all-gathers every rank's report — on a cluster of node groups that
// puts O(P) messages on the slow inter-group link every check. Here
// the exchange follows the topology: members hand their report to
// their group leader over the fast intra-group links, ONLY the leaders
// exchange (aggregated, packed) group vectors across the slow link —
// G·(G−1) messages — and each leader multicasts the assembled world
// vector back down. Every rank ends with the identical [][]byte the
// flat all-gather would have produced, so the pure-float decision
// downstream is bit-exact either way.

// Tags for the leader protocol (the 0x40x block belongs to loadbal).
const (
	tagLeaderGather = 0x403
	tagLeaderX      = 0x404
	tagLeaderBcast  = 0x405
)

// hierGroups projects the world topology onto the communicator: comm
// rank -> compact group index, members per compact group in ascending
// comm rank. A sub-world sees only the groups it intersects; compact
// ids follow ascending world group id, so every rank derives the same
// structure without communicating.
func hierGroups(c *comm.Comm, topo *comm.Topology) (groupOf []int, members [][]int, err error) {
	if topo.P() != c.WorldSize() {
		return nil, nil, fmt.Errorf("loadbal: topology covers %d ranks, world has %d", topo.P(), c.WorldSize())
	}
	worldGroup := make([]int, c.Size())
	for r := range worldGroup {
		worldGroup[r] = topo.GroupOf(c.WorldRankOf(r))
	}
	ids := slices.Compact(slices.Sorted(slices.Values(worldGroup)))
	groupOf = make([]int, len(worldGroup))
	members = make([][]int, len(ids))
	for r, wg := range worldGroup {
		g, _ := slices.BinarySearch(ids, wg)
		groupOf[r] = g
		members[g] = append(members[g], r)
	}
	return groupOf, members, nil
}

// leaderAllGather is AllGather with the hierarchical exchange pattern:
// the returned slices are indexed by comm rank and identical on every
// rank, exactly like c.AllGather's.
func leaderAllGather(c *comm.Comm, topo *comm.Topology, payload []byte) ([][]byte, error) {
	groupOf, members, err := hierGroups(c, topo)
	if err != nil {
		return nil, err
	}
	me := c.Rank()
	g := groupOf[me]
	mine := members[g]
	leader := mine[0]

	if me != leader {
		// Member: report up the fast link, wait for the assembled world
		// vector to come back down.
		if err := c.Send(leader, tagLeaderGather, payload); err != nil {
			return nil, err
		}
		packed, err := c.Recv(leader, tagLeaderBcast)
		if err != nil {
			return nil, err
		}
		defer c.Release(packed)
		return ctl.Sections(packed, c.Size())
	}

	// Leader: gather the group's reports over the fast links...
	groupVec := make([][]byte, len(mine))
	groupVec[0] = payload
	for i, r := range mine[1:] {
		data, err := c.Recv(r, tagLeaderGather)
		if err != nil {
			return nil, err
		}
		groupVec[i+1] = data
		defer c.Release(data)
	}
	packedMine := comm.EncodeSections(groupVec)

	// ...exchange packed group vectors with the other leaders — the
	// only traffic on the slow link. Sends go out first and do not
	// block on the receives, so the exchange cannot deadlock.
	for h, m := range members {
		if h != g {
			if err := c.Send(m[0], tagLeaderX, packedMine); err != nil {
				return nil, err
			}
		}
	}
	all := make([][]byte, c.Size())
	for h, m := range members {
		packed := packedMine
		if h != g {
			if packed, err = c.Recv(m[0], tagLeaderX); err != nil {
				return nil, err
			}
		}
		// ctl.Sections copies the reports out of the packed buffer,
		// which goes back to the transport pool.
		vec, err := ctl.Sections(packed, len(m))
		if h != g {
			c.Release(packed)
		}
		if err != nil {
			return nil, fmt.Errorf("loadbal: group %d: %w", h, err)
		}
		for i, r := range m {
			all[r] = vec[i]
		}
	}

	// ...and multicast the world vector back down the fast links.
	if len(mine) > 1 {
		packedAll := comm.EncodeSections(all)
		if err := c.Multicast(mine[1:], tagLeaderBcast, packedAll); err != nil {
			return nil, err
		}
	}
	return all, nil
}
