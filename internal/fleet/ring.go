// Package fleet is the replicated serving front end: a Router over N
// in-process serve.Server replicas that share one model, one graph and one
// base feature store, keeps each replica's own caches hot on its own key slice
// (consistent-hash affinity with bounded-load spill), sheds work that
// cannot or should not be done (deadline- and priority-aware admission,
// with reasons), and memoizes answers per graph version (an
// embcache.Cache[int32] of labels, asked for exactly the current version).
// A fleet of one is bit-identical to the bare server it wraps.
package fleet

import (
	"fmt"
	"sort"
)

// splitmix64 is the avalanche-grade mixer the ring hashes with (same
// construction the repo's partitioners use): every input bit flips every
// output bit with probability ~1/2, so consecutive node IDs and replica
// indices land uniformly on the ring.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyHash maps a node ID onto the ring's key space.
func keyHash(node int32) uint64 {
	return splitmix64(uint64(uint32(node)))
}

// vnodeHash maps (replica, virtual-node index) onto the ring.
func vnodeHash(replica, vnode int) uint64 {
	return splitmix64(uint64(replica)<<32 | uint64(uint32(vnode)))
}

// point is one virtual node on the ring.
type point struct {
	hash    uint64
	replica int
}

// Ring is a consistent-hash ring with virtual nodes: keys map to the first
// vnode clockwise, so adding or removing one replica remaps only the keys
// in the arcs it owned (~K/N of them) — every other key keeps its home
// replica, which is what keeps per-replica caches hot across membership
// changes. Walk yields the successor sequence the bounded-load router
// spills along.
//
// Ring is not safe for concurrent mutation; the Fleet mutates it only at
// construction. Home and Walk are read-only and safe to share.
type Ring struct {
	vnodes int
	points []point // sorted by hash
}

// DefaultVNodes is the virtual-node count per replica when Options.VNodes
// is zero: enough to keep the max/mean arc-ownership ratio within a few
// percent for small fleets without making membership changes expensive.
const DefaultVNodes = 64

// NewRing builds an empty ring with the given virtual nodes per replica
// (<= 0 selects DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes}
}

// Add inserts replica's virtual nodes. Adding an existing member is an
// error (the ring would double-own its arcs).
func (r *Ring) Add(replica int) error {
	for _, p := range r.points {
		if p.replica == replica {
			return fmt.Errorf("fleet: replica %d already on the ring", replica)
		}
	}
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, point{hash: vnodeHash(replica, v), replica: replica})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].replica < r.points[b].replica
	})
	return nil
}

// Remove deletes replica's virtual nodes (no-op if absent). Keys it owned
// fall to their next clockwise survivor; nothing else moves.
func (r *Ring) Remove(replica int) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.replica != replica {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Home returns the replica owning key (its first vnode clockwise), or -1
// for an empty ring.
func (r *Ring) Home(key uint64) int {
	if len(r.points) == 0 {
		return -1
	}
	return r.points[r.successor(key)].replica
}

// successor returns the index of the first point at or clockwise-after key.
func (r *Ring) successor(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		return 0 // wrap
	}
	return i
}

// Walk visits the distinct replicas in clockwise successor order starting
// at key's home — the spill sequence of consistent hashing with bounded
// loads: a router that finds the home over its load bound tries each
// successor in this order. visit returning true stops the walk. Every
// member is visited at most once.
func (r *Ring) Walk(key uint64, visit func(replica int) bool) {
	if len(r.points) == 0 {
		return
	}
	start := r.successor(key)
	seen := make(map[int]bool, 4)
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.replica] {
			continue
		}
		seen[p.replica] = true
		if visit(p.replica) {
			return
		}
	}
}
