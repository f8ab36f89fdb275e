// Package embcache is the historical layer-embedding cache behind serve's
// fan-out truncation: first-layer output embeddings keyed by (node,
// snapshot version), with a configurable bounded-staleness window.
//
// The idea (the ROADMAP's "biggest available p99 lever for read-heavy
// traffic", following the historical-embedding line of GNNAutoScale/VR-GCN
// applied to serving): when a hot node's layer-1 embedding is already
// cached at a recent-enough snapshot version, the server can stop sampling
// below that node — the entire subtree of hop-2 fan-out, feature gather,
// and first-layer aggregation for that frontier entry is replaced by one
// row copy. Staleness is bounded per entry: an embedding computed at
// version V serves a request pinned at version W iff W-V <= the configured
// window, so graph updates age entries out naturally and a window of 0
// disables reuse entirely (the bit-identity oracle).
//
// Entries are populated from completed batches at zero extra forward cost:
// the layer-1 activations the forward pass computes anyway are copied in
// before the in-place ReLU destroys them.
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

// Options configures New.
type Options struct {
	// Rows is the maximum number of cached embeddings. Must be positive.
	Rows int
	// Staleness is the bounded-staleness window in snapshot versions: an
	// entry stored at version V is usable at version W iff W >= V and
	// W-V <= Staleness. Zero means no entry is ever usable (reuse
	// disabled; the cache still absorbs entries so it can serve the moment
	// the window is widened).
	Staleness uint64
}

// Stats counts cache activity since the last ResetStats.
type Stats struct {
	Lookups   int64 // Lookup calls
	Hits      int64 // lookups served from cache
	Stale     int64 // lookups that found the node but outside the window
	Inserts   int64 // rows written (fresh or overwrite)
	Evictions int64 // rows displaced by CLOCK
}

// HitRate returns the fraction of lookups served from cache.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Cache holds up to Rows embeddings of one layer's output dimension. The
// dimension is fixed lazily by the first Put (models know their hidden
// width; the cache should not).
type Cache struct {
	rows      int
	staleness uint64
	dim       atomic.Int32 // 0 until the first Put fixes it

	mu    sync.RWMutex
	data  []float32 // rows × dim, allocated at first Put
	nodes []int32   // slot -> node (slots [len(slot), rows) are unused)
	vers  []uint64  // slot -> snapshot version the embedding was computed at
	ref   []uint32  // slot -> CLOCK reference bit (atomic; set by Lookup)
	slot  map[int32]int32
	hand  int // CLOCK hand

	lookups atomic.Int64
	hits    atomic.Int64
	stale   atomic.Int64
	inserts int64 // under mu
	evicted int64 // under mu
}

// New builds an embedding cache.
func New(o Options) (*Cache, error) {
	if o.Rows <= 0 {
		return nil, fmt.Errorf("embcache: rows must be positive, got %d", o.Rows)
	}
	c := &Cache{
		rows:      o.Rows,
		staleness: o.Staleness,
		nodes:     make([]int32, o.Rows),
		vers:      make([]uint64, o.Rows),
		ref:       make([]uint32, o.Rows),
		slot:      make(map[int32]int32, o.Rows),
	}
	return c, nil
}

// Rows returns the configured capacity.
func (c *Cache) Rows() int { return c.rows }

// Staleness returns the configured staleness window.
func (c *Cache) Staleness() uint64 { return c.staleness }

// Dim returns the embedding width, or 0 before the first Put.
func (c *Cache) Dim() int { return int(c.dim.Load()) }

// Len returns the number of cached embeddings.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.slot)
}

// Lookup copies node's cached embedding into dst and reports whether it was
// usable at snapshot version now: present, computed at a version <= now,
// and within the staleness window. dst must have length Dim(). The hot
// path of every truncated frontier entry — no allocation, no defer.
//
//salient:noalloc
func (c *Cache) Lookup(node int32, now uint64, dst []float32) bool {
	c.lookups.Add(1)
	c.mu.RLock()
	s, ok := c.slot[node]
	if !ok {
		c.mu.RUnlock()
		return false
	}
	v := c.vers[s]
	if c.staleness == 0 || v > now || now-v > c.staleness {
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

// Put stores node's embedding as computed at the given snapshot version,
// overwriting any older entry for the node and evicting by CLOCK
// second-chance when full. The first Put fixes the embedding width; later
// widths must match (one cache caches one layer of one model).
func (c *Cache) Put(node int32, version uint64, emb []float32) error {
	d := int(c.dim.Load())
	if d == 0 {
		c.mu.Lock()
		if d = int(c.dim.Load()); d == 0 {
			d = len(emb)
			if d == 0 {
				c.mu.Unlock()
				return fmt.Errorf("embcache: empty embedding")
			}
			c.data = make([]float32, c.rows*d)
			c.dim.Store(int32(d))
		}
		c.mu.Unlock()
	}
	if len(emb) != d {
		return fmt.Errorf("embcache: embedding width %d, cache fixed at %d", len(emb), d)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.slot[node]; ok {
		// Overwrite in place; never replace a newer entry with an older one
		// (a slow worker publishing behind a refresher).
		if version >= c.vers[s] {
			copy(c.data[int(s)*d:(int(s)+1)*d], emb)
			c.vers[s] = version
			c.inserts++
		}
		return nil
	}
	s := c.freeSlotLocked()
	c.nodes[s] = node
	c.vers[s] = version
	copy(c.data[int(s)*d:(int(s)+1)*d], emb)
	c.slot[node] = s
	atomic.StoreUint32(&c.ref[s], 1)
	c.inserts++
	return nil
}

// freeSlotLocked returns a free slot, evicting by CLOCK if none: sweep the
// hand, clearing reference bits; the first slot found unreferenced since
// its last sweep is the victim.
func (c *Cache) freeSlotLocked() int32 {
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
func (c *Cache) Stats() Stats {
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

// ResetStats clears the counters (not the cached embeddings).
func (c *Cache) ResetStats() {
	c.mu.Lock()
	c.inserts, c.evicted = 0, 0
	c.mu.Unlock()
	c.lookups.Store(0)
	c.hits.Store(0)
	c.stale.Store(0)
}
