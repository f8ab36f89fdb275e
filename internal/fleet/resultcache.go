package fleet

import "sync"

// ResultStats counts result-cache traffic.
type ResultStats struct {
	Lookups     int64 // Get calls
	Hits        int64 // answers served without touching a replica
	Stores      int64 // Put calls that (re)wrote an entry
	Invalidated int64 // entries dropped because the graph version advanced
}

// HitRate returns the fraction of lookups answered from the cache.
func (s ResultStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// resultEntry is one memoized answer.
type resultEntry struct {
	node    int32
	label   int32
	version uint64
	ref     bool // CLOCK reference bit
}

// resultCache memoizes predicted labels keyed by (node, graph version):
// a lookup hits only when the stored answer was computed at exactly the
// version the caller requires, so a graph update invalidates every older
// answer for free (lazily — entries age out via version mismatch and the
// CLOCK hand — or eagerly via InvalidateBelow, the sweep every fleet write
// runs).
// Correctness leans on the serving layer's determinism: at a fixed graph
// version, Submit(v) always returns the same label, so a memoized answer
// IS the answer.
//
// Fixed capacity, CLOCK (second-chance) eviction: hits set a reference
// bit; the hand evicts the first unreferenced slot, clearing bits as it
// sweeps. All methods are safe for concurrent use.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	index map[int32]int // node -> slot
	slots []resultEntry
	hand  int
	stats ResultStats
}

// newResultCache builds a cache of the given capacity (rows <= 0 returns
// nil — callers treat a nil cache as disabled).
func newResultCache(rows int) *resultCache {
	if rows <= 0 {
		return nil
	}
	return &resultCache{
		cap:   rows,
		index: make(map[int32]int, rows),
		slots: make([]resultEntry, 0, rows),
	}
}

// Get returns the memoized label for node computed at exactly version.
// A stored answer from any other version misses (and is dropped — it can
// never hit again, since the fleet only ever asks for the latest version).
func (c *resultCache) Get(node int32, version uint64) (int32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Lookups++
	i, ok := c.index[node]
	if !ok {
		return 0, false
	}
	e := &c.slots[i]
	if e.version != version {
		c.evict(i)
		c.stats.Invalidated++
		return 0, false
	}
	e.ref = true
	c.stats.Hits++
	return e.label, true
}

// Put memoizes node's label as computed at version, replacing any older
// entry for the node. When full, CLOCK picks the victim.
func (c *resultCache) Put(node, label int32, version uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Stores++
	if i, ok := c.index[node]; ok {
		c.slots[i].label = label
		c.slots[i].version = version
		c.slots[i].ref = true
		return
	}
	if len(c.slots) < c.cap {
		c.index[node] = len(c.slots)
		c.slots = append(c.slots, resultEntry{node: node, label: label, version: version, ref: true})
		return
	}
	// CLOCK: advance the hand past referenced slots (clearing their bits);
	// the first unreferenced slot is the victim. Bounded by two sweeps.
	for {
		e := &c.slots[c.hand]
		if !e.ref {
			delete(c.index, e.node)
			*e = resultEntry{node: node, label: label, version: version, ref: true}
			c.index[node] = c.hand
			c.hand = (c.hand + 1) % c.cap
			return
		}
		e.ref = false
		c.hand = (c.hand + 1) % c.cap
	}
}

// InvalidateBelow drops every entry computed before version — the eager
// sweep Update and AddNode run so a burst of stale entries doesn't linger
// occupying slots that can never hit again.
func (c *resultCache) InvalidateBelow(version uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.slots) - 1; i >= 0; i-- {
		if c.slots[i].version < version {
			c.evict(i)
			c.stats.Invalidated++
		}
	}
}

// evict removes slot i (swap-with-last, index patched). Callers hold mu.
func (c *resultCache) evict(i int) {
	last := len(c.slots) - 1
	delete(c.index, c.slots[i].node)
	if i != last {
		c.slots[i] = c.slots[last]
		c.index[c.slots[i].node] = i
	}
	c.slots = c.slots[:last]
	if c.hand > last {
		c.hand = 0
	}
}

// Len returns the number of memoized answers.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// Stats snapshots the traffic counters.
func (c *resultCache) Stats() ResultStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the counters (entries stay).
func (c *resultCache) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = ResultStats{}
}
