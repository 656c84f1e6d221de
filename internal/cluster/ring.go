// Package cluster fronts M independent server instances — each owning a
// shard of the application's data — with a consistent-hash load-balancer
// stage built on the internal/stage runtime.
//
// The Balancer is itself a variant.Instance: it accepts client
// connections, parses each request with internal/httpwire, routes it
// through a bounded LB stage (the lb.wait probe is that stage's queue
// depth), and forwards it over a pooled keep-alive connection to the
// owning shard. Requests with a partition key ride the consistent-hash
// Ring; key-less requests go to the ring owner of their request
// target's hash; cross-shard requests fan out
// to every shard and the balancer replies once all shards have answered,
// which is what makes a broadcast write read-your-writes for every
// subsequent routed read.
//
// Routing policy stays out of this package: the application supplies a
// RouteFunc mapping a parsed request to a Decision (internal/tpcw's
// ShardRoute is the TPC-W policy), so the balancer itself is generic
// over what "the key" means.
package cluster

import (
	"fmt"
	"sort"
)

// fnv1a hashes a key with 64-bit FNV-1a followed by a murmur-style
// finalizer — stable across processes, so ring placement (and therefore
// shard ownership) is reproducible. The finalizer matters: raw FNV-1a
// has weak high-bit avalanche on short sequential keys ("customer/417",
// "customer/418", ...), which clumps them on the ring; the mixing steps
// restore a uniform spread (TestRingSpread pins this down).
func fnv1a(key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Ring is a consistent-hash ring over shard indices. Each shard owns
// VNodes virtual points on the ring; a key belongs to the shard owning
// the first point at or clockwise of the key's hash. Virtual nodes keep
// per-shard load spread tight, and growing the ring from M to M+1
// shards remaps only the key ranges the new shard's points capture —
// about 1/(M+1) of the key space, not a full reshuffle.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// DefaultVNodes is the virtual-node count per shard. 64 points per shard
// keeps the max/mean load ratio low (see TestRingSpread) while the ring
// stays small enough to search fast.
const DefaultVNodes = 64

// NewRing builds a ring over shards shards with vnodes virtual points
// each (vnodes <= 0 takes DefaultVNodes).
func NewRing(shards, vnodes int) (*Ring, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard, got %d", shards)
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  fnv1a(fmt.Sprintf("shard-%d/vnode-%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties break on shard index so ring order is deterministic even
		// in the astronomically unlikely event of a hash collision.
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Owner maps a key to its owning shard: the first ring point at or
// clockwise of the key's hash, wrapping at the top.
func (r *Ring) Owner(key string) int {
	h := fnv1a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
