// Package shard splits the coordinator across processes: clients are
// partitioned over S shard coordinators by consistent hashing on
// client ID, each shard runs the shared round runtime over its slice,
// and a root aggregator folds the shards' sample-weighted partial
// aggregates into one global model (hierarchical FedAvg — see
// rounds.HierDriver for the arithmetic and DESIGN.md §15 for the wire
// protocol and failure model). Selection stays heterogeneity-aware
// globally: shards ship sketch representatives of their local label
// distributions upward in the Hello handshake, and the root clusters
// them to hand per-shard selection budgets back down.
package shard

import (
	"errors"
	"fmt"
	"sort"

	"haccs/internal/stats"
)

// DefaultVirtualNodes is the per-shard virtual-node count used when a
// Ring is built with vnodes <= 0. 128 points per shard keeps the
// expected load imbalance across a handful of shards within a few
// percent while the ring stays small enough to rebuild per lookup
// table in microseconds.
const DefaultVirtualNodes = 128

// Hash-domain separators so shard points and client keys never draw
// from the same stream (a shard ID equal to a client ID must not
// collide by construction).
const (
	ringShardSalt  = 0x5ac1d_0001
	ringClientSalt = 0x5ac1d_0002
)

// Ring is a consistent-hash ring over shard IDs. Placement is a pure
// function of the ID sets: two rings built from the same shard IDs and
// vnodes agree on every client's owner across process restarts, and
// adding or removing one shard reassigns only the clients that hash
// into the affected arcs — about 1/S of the population in expectation,
// never a client whose owner survives the change.
type Ring struct {
	points []ringPoint
	shards []int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring over the given shard IDs with vnodes virtual
// nodes per shard (<= 0 selects DefaultVirtualNodes). Shard IDs must
// be non-negative and unique; order does not matter.
func NewRing(shardIDs []int, vnodes int) (*Ring, error) {
	if len(shardIDs) == 0 {
		return nil, errors.New("shard: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[int]bool, len(shardIDs))
	r := &Ring{
		points: make([]ringPoint, 0, len(shardIDs)*vnodes),
		shards: append([]int(nil), shardIDs...),
	}
	sort.Ints(r.shards)
	for _, id := range r.shards {
		if id < 0 {
			return nil, fmt.Errorf("shard: negative shard ID %d", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("shard: duplicate shard ID %d", id)
		}
		seen[id] = true
		root := stats.DeriveSeed(ringShardSalt, uint64(id))
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: stats.DeriveSeed(root, uint64(v)), shard: id})
		}
	}
	// Ties between points of different shards are broken by shard ID so
	// the ring order itself is deterministic.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Owner returns the shard owning a client: the first ring point at or
// after the client's hash, wrapping at the top of the key space.
func (r *Ring) Owner(clientID int) int {
	h := stats.DeriveSeed(ringClientSalt, uint64(clientID))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Partition maps the dense client roster 0..n-1 onto the ring,
// returning each shard's client IDs in ascending order, indexed in the
// same order as Shards().
func (r *Ring) Partition(n int) [][]int {
	slot := make(map[int]int, len(r.shards))
	for i, id := range r.shards {
		slot[id] = i
	}
	out := make([][]int, len(r.shards))
	for c := 0; c < n; c++ {
		s := slot[r.Owner(c)]
		out[s] = append(out[s], c)
	}
	return out
}
