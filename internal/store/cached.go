package store

import (
	"fmt"
	"sync"

	"salient/internal/cache"
	"salient/internal/graph"
	"salient/internal/half"
	"salient/internal/mfg"
	"salient/internal/slicing"
)

// Cached wraps any FeatureStore with a device-resident feature-row cache
// (internal/cache): rows the policy keeps resident are never charged
// host-to-device transfer, only the misses are — the GNS/Zero-Copy
// extension the paper points to (§8), applied on the live data path.
//
// Batch contents are still staged in full and bit-identically to the inner
// store: the host-side copy of a resident row models the device assembling
// it from cache memory, which costs no PCIe traffic. Only the accounting
// changes, which is exactly the quantity the caching literature optimizes.
//
// The outermost store is authoritative for transfer stats; the inner
// store's own Stats keep counting every staged row and should be ignored
// when wrapped.
type Cached struct {
	inner FeatureStore

	mu    sync.Mutex
	cache *cache.Cache
	stats Stats
}

// CacheOptions configures NewCached.
type CacheOptions struct {
	// Rows is the cache's row capacity.
	Rows int
	// Policy selects placement (StaticDegree or VIP).
	Policy cache.Policy
}

// NewCached wraps inner with a cache configured by o over topology g (the
// degree source for static placement).
func NewCached(inner FeatureStore, g graph.Topology, o CacheOptions) (*Cached, error) {
	if int(g.NumNodes()) != inner.NumNodes() {
		return nil, fmt.Errorf("store: cache graph has %d nodes, store holds %d", g.NumNodes(), inner.NumNodes())
	}
	c, err := cache.New(g, cache.Options{Capacity: o.Rows, Policy: o.Policy})
	if err != nil {
		return nil, err
	}
	return &Cached{inner: inner, cache: c}, nil
}

// Dim returns the feature dimensionality.
func (c *Cached) Dim() int { return c.inner.Dim() }

// Precision returns the inner store's storage precision.
func (c *Cached) Precision() half.Precision { return c.inner.Precision() }

// NumNodes returns the number of feature rows held.
func (c *Cached) NumNodes() int { return c.inner.NumNodes() }

// Cache exposes the wrapped cache for residency inspection.
func (c *Cached) Cache() *cache.Cache { return c.cache }

// Refresh recomputes the cache placement against a new topology snapshot —
// the per-snapshot placement of the dynamic-graph path (top-K by degree, or
// by observed traffic under VIP). The serving layer rate-limits its calls
// under churn. The O(N) ranking runs OUTSIDE the settle lock so concurrent
// Gathers never stall behind it; only the O(K) resident-set swap holds the
// lock.
func (c *Cached) Refresh(g graph.Topology) {
	ids := c.cache.Plan(g)
	c.mu.Lock()
	c.cache.Adopt(ids)
	c.mu.Unlock()
}

// AppendRows implements Appendable by forwarding to the inner store when it
// can grow. New rows start non-resident; their gathers are counted (see
// settle), so a later Refresh may promote them.
func (c *Cached) AppendRows(feat []float32, labels []int32) (int32, error) {
	ap, ok := c.inner.(Appendable)
	if !ok {
		return 0, fmt.Errorf("store: inner store %T cannot append rows", c.inner)
	}
	return ap.AppendRows(feat, labels)
}

// Gather stages the batch through the inner store, then settles the
// transfer bill against the cache: resident rows are saved bytes, misses
// are moved bytes.
func (c *Cached) Gather(dst *slicing.Pinned, nodeIDs []int32, batch int) error {
	if err := c.inner.Gather(dst, nodeIDs, batch); err != nil {
		return err
	}
	c.settle(nodeIDs)
	return nil
}

// GatherStriped preserves the inner store's striped-parallel kernel (the
// PyG executor's Table 2 comparison) under caching, falling back to the
// serial gather for inner stores without static stripes.
func (c *Cached) GatherStriped(dst *slicing.Pinned, nodeIDs []int32, batch, nWorkers int, run func(stripes []func())) error {
	var err error
	if sg, ok := c.inner.(StripedGatherer); ok {
		err = sg.GatherStriped(dst, nodeIDs, batch, nWorkers, run)
	} else {
		err = c.inner.Gather(dst, nodeIDs, batch)
	}
	if err != nil {
		return err
	}
	c.settle(nodeIDs)
	return nil
}

// GatherAggregate implements FusedGatherer when the inner store does,
// forwarding the fused one-pass kernel and then settling the cache bill for
// the rows it read — residency accounting is identical to the staged
// gather, since the fused kernel touches exactly the same rows.
func (c *Cached) GatherAggregate(dst *slicing.Fused, nodeIDs []int32, blk *mfg.Block, batch int, op slicing.AggOp) error {
	fg, ok := c.inner.(FusedGatherer)
	if !ok {
		return fmt.Errorf("store: inner store %T has no fused gather", c.inner)
	}
	if err := fg.GatherAggregate(dst, nodeIDs, blk, batch, op); err != nil {
		return err
	}
	c.settle(nodeIDs)
	return nil
}

// settle charges the cache bill for one gathered batch. Over a sharded
// inner store it also re-derives remote traffic cache-aware: only rows that
// both missed the cache and live off the batch's home shard count as remote
// fetches — a resident row costs no network no matter where its master
// copy lives. Row width follows the inner store's storage precision.
//
// settle first grows the cache's traffic count to every row the inner store
// holds. That covers rows appended through this wrapper and rows appended
// to a base store this wrapper shares (a fleet replica's cache), and the
// inner gather already bounded nodeIDs by that count.
func (c *Cached) settle(nodeIDs []int32) {
	rowBytes := c.inner.Precision().RowBytes(c.inner.Dim())
	sh, _ := c.inner.(*Sharded)
	var home int32
	if sh != nil && len(nodeIDs) > 0 {
		home = sh.Part(nodeIDs[0])
	}
	c.cache.Grow(c.inner.NumNodes())
	c.mu.Lock()
	misses, remoteMisses := 0, 0
	for _, v := range nodeIDs {
		if c.cache.Touch(v) {
			continue
		}
		misses++
		if sh != nil && sh.Part(v) != home {
			remoteMisses++
		}
	}
	hits := len(nodeIDs) - misses
	cs := c.cache.Stats()
	c.stats.Gathers++
	c.stats.Rows += int64(len(nodeIDs))
	c.stats.RowsMoved += int64(misses)
	c.stats.BytesMoved += int64(misses) * rowBytes
	c.stats.RowsSaved += int64(hits)
	c.stats.BytesSaved += int64(hits) * rowBytes
	c.stats.RowsRemote += int64(remoteMisses)
	c.stats.BytesRemote += int64(remoteMisses) * rowBytes
	c.stats.CacheLookups = cs.Lookups
	c.stats.CacheHits = cs.Hits
	c.mu.Unlock()
}

// Stats returns the accumulated transfer accounting. In a Cached(Sharded)
// composition RowsRemote counts only cache-missing off-shard rows (actual
// remote fetches); the inner store's own Stats keep the pre-cache layout
// view.
func (c *Cached) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats clears the accounting on this layer, the cache's counters, and
// the inner store (residency is untouched).
func (c *Cached) ResetStats() {
	c.mu.Lock()
	c.stats = Stats{}
	c.cache.ResetStats()
	c.mu.Unlock()
	c.inner.ResetStats()
}
