// Package cache implements GPU-resident feature caching, the transfer-
// volume reduction the paper points to as future work (§8, citing GNS and
// Zero-Copy): keep the feature rows of frequently sampled nodes in device
// memory so batch transfers only carry the misses.
//
// Hot-row placement is one decision made here: rank the candidate rows by a
// score and keep the top K under (score desc, id asc), chosen by TopK. Two
// scores are provided:
//
//   - Static degree: pin the top-K highest-degree nodes. Node-wise sampling
//     revisits high-degree nodes with probability roughly proportional to
//     degree, so a small static cache absorbs a large fraction of feature
//     traffic on power-law graphs. store.Remote warms its mirror of remote
//     rows with the same ranking.
//
//   - VIP: access-frequency placement (the SALIENT++/VIP policy the paper's
//     successor line shows beating degree heuristics). Every Touch feeds an
//     O(1) frequency sketch; each Rebuild re-places the top rows by observed
//     traffic and halves the sketch, so placement tracks what is actually
//     gathered — not a static structural proxy.
//
// Neither policy evicts on a miss: residency changes only at a Rebuild.
//
// The package computes exact per-batch hit statistics against real sampled
// MFGs; store.Cached turns them into its transfer-savings accounting.
package cache

import (
	"fmt"

	"salient/internal/graph"
)

// Policy identifies a cache placement policy.
type Policy int

const (
	// StaticDegree pins the top-capacity nodes by degree.
	StaticDegree Policy = iota
	// VIP pins the top-capacity nodes by observed access frequency,
	// re-placed at every Rebuild.
	VIP
)

func (p Policy) String() string {
	if p == VIP {
		return "vip"
	}
	return "static-degree"
}

// ParsePolicy maps a flag-style name onto a Policy: "degree" (or
// "static-degree") or "vip". The empty string selects StaticDegree.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "degree", "static-degree":
		return StaticDegree, nil
	case "vip":
		return VIP, nil
	}
	return 0, fmt.Errorf("cache: unknown policy %q (want degree or vip)", s)
}

// Stats accumulates cache performance over a stream of batches.
type Stats struct {
	Lookups int64
	Hits    int64
}

// HitRate returns the fraction of looked-up rows served from cache.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Cache is a device-side feature-row cache. It tracks residency only (the
// actual rows live in device memory in the modeled system); Touch reports
// whether a node's features were resident.
type Cache struct {
	policy   Policy
	capacity int
	sketch   *Sketch // VIP only: traffic observed through Touch

	resident map[int32]struct{}
	stats    Stats
}

// Options configures New.
type Options struct {
	// Capacity is the cache's row capacity. A capacity above the node
	// count holds every node; rows appended later can still fill it.
	Capacity int
	// Policy selects placement.
	Policy Policy
}

// New builds a cache over topology g configured by o.
func New(g graph.Topology, o Options) (*Cache, error) {
	if o.Capacity < 0 {
		return nil, fmt.Errorf("cache: negative capacity %d", o.Capacity)
	}
	n := int(g.NumNodes())
	c := &Cache{
		policy:   o.Policy,
		capacity: o.Capacity,
		resident: make(map[int32]struct{}, min(o.Capacity, n)),
	}
	if o.Policy == VIP {
		c.sketch = NewSketch(n)
	}
	c.Rebuild(g)
	return c, nil
}

// Rebuild recomputes the cache placement for a (possibly new) topology —
// how the cache follows a dynamic graph: each pinned snapshot re-ranks
// nodes, so edge churn (or traffic) that promotes a node into the top-K
// makes its row resident at the next refresh. The resident set is replaced
// wholesale; statistics survive.
//
// Rebuild = Adopt(Plan(g)); callers that guard the cache with their own
// lock (store.Cached) run the expensive Plan outside it and only the cheap
// Adopt swap inside.
func (c *Cache) Rebuild(g graph.Topology) {
	c.Adopt(c.Plan(g))
}

// Plan computes the placement for topology g without touching resident
// state: the top-capacity node IDs by degree for StaticDegree, by observed
// access frequency for VIP, capped at g's node count. It reads only the
// cache's immutable configuration plus the atomic frequency sketch, so it
// needs no synchronization and can run outside whatever lock guards the
// cache. Under VIP, Plan additionally halves the sketch (atomic,
// concurrent-safe) so each re-placement ages the traffic history.
func (c *Cache) Plan(g graph.Topology) []int32 {
	n := g.NumNodes()
	if c.capacity <= 0 || n == 0 {
		return []int32{}
	}
	var ids []int32
	var score []int64
	if c.policy == VIP {
		// Cold start (no traffic yet): nothing has earned a slot. Only
		// observed nodes are candidates — VIP never pins untouched rows.
		if c.sketch.Observations() == 0 {
			return []int32{}
		}
		ids = make([]int32, 0, n)
		score = make([]int64, 0, n)
		for v := int32(0); v < n; v++ {
			if cnt := c.sketch.Count(v); cnt > 0 {
				ids = append(ids, v)
				score = append(score, int64(cnt))
			}
		}
	} else {
		ids = make([]int32, n)
		score = make([]int64, n)
		for v := int32(0); v < n; v++ {
			ids[v] = v
			score[v] = int64(g.Degree(v))
		}
	}
	plan := TopK(ids, score, c.capacity)
	if c.sketch != nil {
		c.sketch.Decay()
	}
	return plan
}

// Adopt replaces the resident set with a planned placement. Statistics
// survive. Callers synchronize.
func (c *Cache) Adopt(ids []int32) {
	clear(c.resident)
	for _, v := range ids {
		c.resident[v] = struct{}{}
	}
}

// Grow makes the cache count accesses to every node ID below n, so a node
// appended to a growing graph can earn a VIP slot at the next Rebuild
// (store.Cached grows before counting each gather). No-op for StaticDegree.
func (c *Cache) Grow(n int) {
	if c.sketch != nil {
		c.sketch.Grow(n)
	}
}

// Capacity returns the cache's row capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Policy returns the cache's configured policy.
func (c *Cache) Policy() Policy { return c.policy }

// Len returns the number of currently resident rows.
func (c *Cache) Len() int { return len(c.resident) }

// Stats returns accumulated lookup statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the accumulated statistics (not residency).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Touch records a feature-row access for node v and reports whether it hit.
// Under VIP, every access — hit or miss — feeds the frequency sketch, so
// placement refreshes rank rows by the traffic they actually absorb.
func (c *Cache) Touch(v int32) bool {
	c.stats.Lookups++
	if c.sketch != nil {
		c.sketch.Observe(v)
	}
	if _, ok := c.resident[v]; ok {
		c.stats.Hits++
		return true
	}
	return false
}

// Resident reports whether node v's features are currently cached, without
// touching policy state or statistics.
func (c *Cache) Resident(v int32) bool {
	_, ok := c.resident[v]
	return ok
}
