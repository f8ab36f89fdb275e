// Package cache implements GPU-resident feature caching, the transfer-
// volume reduction the paper points to as future work (§8, citing GNS and
// Zero-Copy): keep the feature rows of frequently sampled nodes in device
// memory so batch transfers only carry the misses.
//
// Two policies are provided:
//
//   - Static degree cache: pin the top-K highest-degree nodes. Node-wise
//     sampling revisits high-degree nodes with probability roughly
//     proportional to degree, so a small static cache absorbs a large
//     fraction of feature traffic on power-law graphs.
//
//   - LRU cache: classic recency eviction, as a dynamic baseline. It must
//     pay transfer for every miss anyway (the row is then resident), so its
//     advantage over static is workload drift — which node-wise sampling on
//     a fixed graph exhibits little of.
//
//   - VIP cache: access-frequency placement (the SALIENT++/VIP policy the
//     paper's successor line shows beating degree heuristics). Every Touch
//     feeds an O(1) frequency sketch; each Rebuild re-places the top rows by
//     observed traffic and halves the sketch, so placement tracks what is
//     actually gathered — not a static structural proxy.
//
// The package computes exact per-batch hit statistics against real sampled
// MFGs; store.Cached turns them into its transfer-savings accounting.
package cache

import (
	"fmt"

	"salient/internal/graph"
)

// Policy identifies a cache replacement/placement policy.
type Policy int

const (
	// StaticDegree pins the top-capacity nodes by degree; no eviction.
	StaticDegree Policy = iota
	// LRU evicts the least recently used row on miss.
	LRU
	// VIP pins the top-capacity nodes by observed access frequency,
	// re-placed at every Rebuild; no per-miss eviction.
	VIP
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case VIP:
		return "vip"
	}
	return "static-degree"
}

// ParsePolicy maps a flag-style name onto a Policy: "degree" (or
// "static-degree"), "lru", "vip". The empty string selects StaticDegree.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "degree", "static-degree":
		return StaticDegree, nil
	case "lru":
		return LRU, nil
	case "vip":
		return VIP, nil
	}
	return 0, fmt.Errorf("cache: unknown policy %q (want degree, lru, or vip)", s)
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
// whether a node's features were resident and updates the policy state.
type Cache struct {
	policy   Policy
	capacity int
	sketch   *Sketch // VIP only: traffic observed through Touch

	resident map[int32]*lruNode // node -> LRU entry (nil value for static)
	head     *lruNode           // most recent
	tail     *lruNode           // least recent
	stats    Stats
}

type lruNode struct {
	id         int32
	prev, next *lruNode
}

// Options configures New.
type Options struct {
	// Capacity is the cache's row capacity (capped at the node count).
	Capacity int
	// Policy selects placement/replacement.
	Policy Policy
}

// New builds a cache over topology g configured by o.
func New(g graph.Topology, o Options) (*Cache, error) {
	if o.Capacity < 0 {
		return nil, fmt.Errorf("cache: negative capacity %d", o.Capacity)
	}
	if o.Capacity > int(g.NumNodes()) {
		o.Capacity = int(g.NumNodes())
	}
	c := &Cache{
		policy:   o.Policy,
		capacity: o.Capacity,
		resident: make(map[int32]*lruNode, o.Capacity),
	}
	if o.Policy == VIP {
		c.sketch = NewSketch(int(g.NumNodes()))
	}
	c.Rebuild(g)
	return c, nil
}

// Rebuild recomputes the cache placement for a (possibly new) topology —
// how a static degree cache follows a dynamic graph: each pinned snapshot
// re-ranks nodes by degree, so edge churn that promotes a node into the
// top-K makes its row resident at the next refresh. Under StaticDegree the
// resident set is replaced wholesale (capacity capped at the node count);
// under LRU residency is recency state, not placement, so Rebuild leaves it
// untouched. Statistics survive either way.
//
// Rebuild = Adopt(Plan(g)); callers that guard the cache with their own
// lock (store.Cached) run the expensive Plan outside it and only the cheap
// Adopt swap inside.
func (c *Cache) Rebuild(g graph.Topology) {
	c.Adopt(c.Plan(g))
}

// Plan computes the placement for topology g without touching resident
// state: the top-capacity node IDs by degree for StaticDegree, by observed
// access frequency for VIP, nil for recency policies (whose residency is
// history, not placement). It reads only the cache's immutable
// configuration plus the atomic frequency sketch, so it needs no
// synchronization and can run outside whatever lock guards the cache.
// Under VIP, Plan additionally halves the sketch (atomic, concurrent-safe)
// so each re-placement ages the traffic history.
func (c *Cache) Plan(g graph.Topology) []int32 {
	if c.policy == LRU {
		return nil
	}
	capacity := c.capacity
	if capacity > int(g.NumNodes()) {
		capacity = int(g.NumNodes())
	}
	if capacity <= 0 {
		return []int32{}
	}
	n := g.NumNodes()
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
	// Expected-O(n) quickselect of the capacity best-scored candidates.
	k := min(capacity, len(ids))
	topKSelect(ids, score, k)
	if c.policy == VIP {
		c.sketch.Decay()
	}
	return ids[:k]
}

// Adopt replaces the resident set with a planned placement (no-op for nil,
// the recency-policy plan). Statistics survive. Callers synchronize.
func (c *Cache) Adopt(ids []int32) {
	if ids == nil {
		return
	}
	for v := range c.resident {
		delete(c.resident, v)
	}
	for _, v := range ids {
		c.resident[v] = nil
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
// Under LRU, a miss inserts v (evicting the least recent row if full).
// Under VIP, every access — hit or miss — feeds the frequency sketch, so
// placement refreshes rank rows by the traffic they actually absorb.
func (c *Cache) Touch(v int32) bool {
	c.stats.Lookups++
	if c.sketch != nil {
		c.sketch.Observe(v)
	}
	n, ok := c.resident[v]
	if ok {
		c.stats.Hits++
		if c.policy == LRU {
			c.moveToFront(n)
		}
		return true
	}
	if c.policy == LRU && c.capacity > 0 {
		c.insert(v)
	}
	return false
}

func (c *Cache) insert(v int32) {
	if len(c.resident) >= c.capacity {
		lru := c.tail
		c.unlink(lru)
		delete(c.resident, lru.id)
	}
	n := &lruNode{id: v}
	c.resident[v] = n
	c.pushFront(n)
}

func (c *Cache) moveToFront(n *lruNode) {
	if n == nil || c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *Cache) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *Cache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// Resident reports whether node v's features are currently cached, without
// touching policy state or statistics.
func (c *Cache) Resident(v int32) bool {
	_, ok := c.resident[v]
	return ok
}
