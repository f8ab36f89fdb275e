// Package embcache is the versioned node table: a fixed-capacity CLOCK
// table of per-node rows, each tagged with the graph snapshot version it
// was computed at. A lookup names the versions it accepts, so the table
// itself holds no freshness policy. It backs two memo layers over the
// sampled serving pipeline:
//
//   - historical layer-embedding reuse (Cache[float32], rows of the
//     layer-1 width, looked up through a per-worker Reuser): when a hot
//     frontier node's layer-1 embedding was computed within the
//     staleness window, the server stops sampling below that node — the
//     entire subtree of hop-2 fan-out, feature gather, and first-layer
//     aggregation for that frontier entry is replaced by one row copy.
//     Entries are populated from completed batches at zero extra forward
//     cost: the layer-1 activations the forward pass computes anyway are
//     copied in before the in-place ReLU destroys them.
//   - the fleet's result memo (Cache[int32], one predicted label per row),
//     asked for exactly the shared graph's current version.
//
// Concurrency: Lookup takes a read lock, Put takes the write lock. The hot
// Lookup path performs no allocation (//salient:noalloc, CI-gated);
// eviction is CLOCK second-chance over atomically-marked reference bits so
// lookups never upgrade to the write lock.
package embcache

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Stats counts table activity since the last ResetStats.
type Stats struct {
	Lookups   int64 // Lookup calls
	Hits      int64 // lookups served from the table
	Stale     int64 // lookups that found the node outside the asked versions
	Inserts   int64 // rows written (fresh or overwrite)
	Evictions int64 // rows displaced by CLOCK
}

// HitRate returns the fraction of lookups served from the table.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Cache holds up to a fixed number of rows of T, one per node, each with
// the snapshot version it was computed at. The row width is fixed lazily
// by the first Put (models know their hidden width; the table should not).
type Cache[T any] struct {
	rows int
	dim  atomic.Int32 // 0 until the first Put fixes it

	mu    sync.RWMutex
	data  []T      // rows × dim, allocated at first Put
	nodes []int32  // slot -> node (slots [len(slot), rows) are unused)
	vers  []uint64 // slot -> snapshot version the row was computed at
	ref   []uint32 // slot -> CLOCK reference bit (atomic; set by Lookup)
	slot  map[int32]int32
	hand  int // CLOCK hand

	lookups atomic.Int64
	hits    atomic.Int64
	stale   atomic.Int64
	inserts int64 // under mu
	evicted int64 // under mu
}

// New builds a table of the given row capacity.
func New[T any](rows int) (*Cache[T], error) {
	if rows <= 0 {
		return nil, fmt.Errorf("embcache: rows must be positive, got %d", rows)
	}
	return &Cache[T]{
		rows:  rows,
		nodes: make([]int32, rows),
		vers:  make([]uint64, rows),
		ref:   make([]uint32, rows),
		slot:  make(map[int32]int32, rows),
	}, nil
}

// Dim returns the row width, or 0 before the first Put.
func (c *Cache[T]) Dim() int { return int(c.dim.Load()) }

// Len returns the number of stored rows.
func (c *Cache[T]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.slot)
}

// Lookup copies node's row into dst and reports whether it was computed at
// a version in [oldest, newest]. An empty range (oldest > newest) never
// hits. dst must have length Dim(). The hot path of every truncated
// frontier entry and every memo probe — no allocation, no defer.
//
//salient:noalloc
func (c *Cache[T]) Lookup(node int32, oldest, newest uint64, dst []T) bool {
	c.lookups.Add(1)
	c.mu.RLock()
	s, ok := c.slot[node]
	if !ok {
		c.mu.RUnlock()
		return false
	}
	if v := c.vers[s]; v < oldest || v > newest {
		c.mu.RUnlock()
		c.stale.Add(1)
		return false
	}
	d := int(c.dim.Load())
	copy(dst, c.data[int(s)*d:(int(s)+1)*d])
	atomic.StoreUint32(&c.ref[s], 1)
	c.mu.RUnlock()
	c.hits.Add(1)
	return true
}

// Put stores node's row as computed at the given snapshot version,
// overwriting any older entry for the node and evicting by CLOCK
// second-chance when full. The first Put fixes the row width; later widths
// must match (one table holds one kind of row).
func (c *Cache[T]) Put(node int32, version uint64, row []T) error {
	d := int(c.dim.Load())
	if d == 0 {
		c.mu.Lock()
		if d = int(c.dim.Load()); d == 0 {
			d = len(row)
			if d == 0 {
				c.mu.Unlock()
				return fmt.Errorf("embcache: empty row")
			}
			c.data = make([]T, c.rows*d)
			c.dim.Store(int32(d))
		}
		c.mu.Unlock()
	}
	if len(row) != d {
		return fmt.Errorf("embcache: row width %d, table fixed at %d", len(row), d)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.slot[node]; ok {
		// Overwrite in place; never replace a newer entry with an older one
		// (a slow worker publishing behind a refresher).
		if version >= c.vers[s] {
			copy(c.data[int(s)*d:(int(s)+1)*d], row)
			c.vers[s] = version
			c.inserts++
		}
		return nil
	}
	s := c.freeSlotLocked()
	c.nodes[s] = node
	c.vers[s] = version
	copy(c.data[int(s)*d:(int(s)+1)*d], row)
	c.slot[node] = s
	atomic.StoreUint32(&c.ref[s], 1)
	c.inserts++
	return nil
}

// freeSlotLocked returns a free slot, evicting by CLOCK if none: sweep the
// hand, clearing reference bits; the first slot found unreferenced since
// its last sweep is the victim.
func (c *Cache[T]) freeSlotLocked() int32 {
	if n := len(c.slot); n < c.rows {
		// Entries are only ever replaced, never dropped, so slots fill in
		// order and the first unused one is slot n.
		c.hand = (n + 1) % c.rows
		return int32(n)
	}
	for {
		s := c.hand
		c.hand = (c.hand + 1) % c.rows
		if atomic.LoadUint32(&c.ref[s]) != 0 {
			atomic.StoreUint32(&c.ref[s], 0) // second chance
			continue
		}
		delete(c.slot, c.nodes[s])
		c.evicted++
		return int32(s)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache[T]) Stats() Stats {
	c.mu.RLock()
	inserts, evicted := c.inserts, c.evicted
	c.mu.RUnlock()
	return Stats{
		Lookups:   c.lookups.Load(),
		Hits:      c.hits.Load(),
		Stale:     c.stale.Load(),
		Inserts:   inserts,
		Evictions: evicted,
	}
}

// ResetStats clears the counters (not the stored rows).
func (c *Cache[T]) ResetStats() {
	c.mu.Lock()
	c.inserts, c.evicted = 0, 0
	c.mu.Unlock()
	c.lookups.Store(0)
	c.hits.Store(0)
	c.stale.Store(0)
}
