package cache

import (
	"math"
	"sync"
	"sync/atomic"
)

// Sketch is the access-frequency counter behind the VIP policy (the
// SALIENT++ line's frequency-weighted replication, replacing the degree
// heuristic): one saturating counter per node, O(1) atomic Observe on the
// gather hot path, and a halving Decay that ages history at every
// re-placement so the plan follows shifting traffic instead of its
// all-time integral.
//
// All operations are safe for concurrent use without external locking —
// observers (store gathers) and planners (placement refreshes) never
// block each other. Counts are advisory: a reader may see a count torn
// relative to another node's, which only perturbs tie-breaks.
type Sketch struct {
	counts atomic.Pointer[[]uint32] // swapped whole by Grow
	obs    atomic.Int64
	growMu sync.Mutex // serializes Grow
}

// NewSketch returns a sketch over n nodes (IDs [0, n)).
func NewSketch(n int) *Sketch {
	c := make([]uint32, max(n, 0))
	s := &Sketch{}
	s.counts.Store(&c)
	return s
}

// Len returns the number of nodes the sketch counts.
func (s *Sketch) Len() int { return len(*s.counts.Load()) }

// Grow extends the sketch to count IDs [0, n), keeping every count. The
// backing array grows geometrically, and within its capacity the new
// slice shares it with the old one, so appending nodes one at a time costs
// amortized O(1) and loses no concurrent increment. Only a reallocation
// copies: an Observe that lands on the old array between the copy and the
// swap is lost, which is one access of noise, as in Decay.
func (s *Sketch) Grow(n int) {
	if n <= s.Len() {
		return
	}
	s.growMu.Lock()
	defer s.growMu.Unlock()
	old := *s.counts.Load()
	if n <= len(old) {
		return
	}
	var next []uint32
	if n <= cap(old) {
		next = old[:n] // nothing ever wrote past len(old): the tail is zero
	} else {
		next = make([]uint32, n, max(n, 2*cap(old)))
		for i := range old {
			next[i] = atomic.LoadUint32(&old[i])
		}
	}
	s.counts.Store(&next)
}

// Observe records one access to node v. IDs outside [0, Len()) are
// ignored: a store grows its sketch before counting a row it appended
// (store.Cached), so only invalid IDs reach this. Saturates at MaxUint32
// instead of wrapping.
func (s *Sketch) Observe(v int32) {
	counts := *s.counts.Load()
	if v < 0 || int(v) >= len(counts) {
		return
	}
	for {
		c := atomic.LoadUint32(&counts[v])
		if c == math.MaxUint32 {
			return
		}
		if atomic.CompareAndSwapUint32(&counts[v], c, c+1) {
			s.obs.Add(1)
			return
		}
	}
}

// Count returns node v's current access count (0 for out-of-range IDs).
func (s *Sketch) Count(v int32) uint32 {
	counts := *s.counts.Load()
	if v < 0 || int(v) >= len(counts) {
		return 0
	}
	return atomic.LoadUint32(&counts[v])
}

// Observations returns the total number of recorded accesses since the
// last Decay-to-zero, an emptiness probe for cold-start planning.
func (s *Sketch) Observations() int64 { return s.obs.Load() }

// Decay halves every counter — exponential aging, called by the placement
// planner at each re-placement so that K refreshes ago's traffic carries
// 2^-K weight. Concurrent Observes may slip between the load and the
// store of a slot; the lost increment is one access of noise.
func (s *Sketch) Decay() {
	counts := *s.counts.Load()
	var total int64
	for i := range counts {
		c := atomic.LoadUint32(&counts[i]) / 2
		atomic.StoreUint32(&counts[i], c)
		total += int64(c)
	}
	s.obs.Store(total)
}

// TopK returns the k best ids under (score desc, id asc) — the one order
// every hot-row placement uses: the static degree cache, the VIP cache and
// store.Remote's degree-warmed mirror. It runs an expected-O(n) quickselect
// with median-of-three pivots, reorders ids and its parallel score slice in
// place, and returns ids[:k] (all of ids when k exceeds its length). The
// result is a set; its order is unspecified.
func TopK(ids []int32, score []int64, k int) []int32 {
	k = max(0, min(k, len(ids)))
	lo, hi := 0, len(ids)
	for k > 0 && k < len(ids) && hi-lo > 1 {
		p := partitionTopK(ids, score, lo, hi)
		if p == k || p == k-1 {
			break // entries [0,k) are exactly the k best
		}
		if p < k {
			lo = p + 1
		} else {
			hi = p
		}
	}
	return ids[:k]
}

// before reports whether entry a outranks entry b: higher score first,
// lower id on ties (the deterministic order every placement uses).
func before(ids []int32, score []int64, a, b int) bool {
	if score[a] != score[b] {
		return score[a] > score[b]
	}
	return ids[a] < ids[b]
}

// partitionTopK Hoare-style partitions [lo,hi) around a median-of-three
// pivot and returns the pivot's final index: everything left of it
// outranks it, everything right does not.
func partitionTopK(ids []int32, score []int64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	last := hi - 1
	// Median of three into lo: order (lo, mid, last) so lo holds the median.
	if before(ids, score, mid, lo) {
		swapTopK(ids, score, mid, lo)
	}
	if before(ids, score, last, lo) {
		swapTopK(ids, score, last, lo)
	}
	if before(ids, score, mid, last) {
		swapTopK(ids, score, mid, last)
	}
	// Pivot now at last; Lomuto partition by "outranks pivot".
	pivot := last
	store := lo
	for i := lo; i < last; i++ {
		if before(ids, score, i, pivot) {
			swapTopK(ids, score, i, store)
			store++
		}
	}
	swapTopK(ids, score, store, last)
	return store
}

func swapTopK(ids []int32, score []int64, a, b int) {
	ids[a], ids[b] = ids[b], ids[a]
	score[a], score[b] = score[b], score[a]
}
