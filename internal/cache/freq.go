package cache

import (
	"math"
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
	counts []uint32
	obs    atomic.Int64
}

// NewSketch returns a sketch over n nodes (IDs [0, n)).
func NewSketch(n int) *Sketch {
	if n < 0 {
		n = 0
	}
	return &Sketch{counts: make([]uint32, n)}
}

// Len returns the number of nodes the sketch counts.
func (s *Sketch) Len() int { return len(s.counts) }

// Observe records one access to node v. Out-of-range IDs (nodes appended
// after construction) are ignored: they become countable after the next
// placement layer rebuilds its sketch, and an uncounted hot row costs one
// refresh cycle of suboptimal placement, never correctness. Saturates at
// MaxUint32 instead of wrapping.
func (s *Sketch) Observe(v int32) {
	if v < 0 || int(v) >= len(s.counts) {
		return
	}
	for {
		c := atomic.LoadUint32(&s.counts[v])
		if c == math.MaxUint32 {
			return
		}
		if atomic.CompareAndSwapUint32(&s.counts[v], c, c+1) {
			s.obs.Add(1)
			return
		}
	}
}

// Count returns node v's current access count (0 for out-of-range IDs).
func (s *Sketch) Count(v int32) uint32 {
	if v < 0 || int(v) >= len(s.counts) {
		return 0
	}
	return atomic.LoadUint32(&s.counts[v])
}

// Observations returns the total number of recorded accesses since the
// last Decay-to-zero, an emptiness probe for cold-start planning.
func (s *Sketch) Observations() int64 { return s.obs.Load() }

// Decay halves every counter — exponential aging, called by the placement
// planner at each re-placement so that K refreshes ago's traffic carries
// 2^-K weight. Concurrent Observes may slip between the load and the
// store of a slot; the lost increment is one access of noise.
func (s *Sketch) Decay() {
	var total int64
	for i := range s.counts {
		c := atomic.LoadUint32(&s.counts[i]) / 2
		atomic.StoreUint32(&s.counts[i], c)
		total += int64(c)
	}
	s.obs.Store(total)
}

// PlanVIP selects up to budget rows, frequency first: the candidates
// ids[i] with the highest observed frequency freq[i] (ties to the lower
// id), chosen in O(len(ids)) by quickselect. Every row of one store costs
// the same, so the budget counts rows. The result's order is unspecified;
// it is a set.
func PlanVIP(ids []int32, freq []int64, budget int64) []int32 {
	if len(ids) == 0 || budget <= 0 {
		return []int32{}
	}
	k := int(min(budget, int64(len(ids))))
	out := append([]int32(nil), ids...)
	sc := append([]int64(nil), freq...)
	topKSelect(out, sc, k)
	return out[:k]
}

// topKSelect partially orders ids (and its parallel score slice) so that
// the k best entries under (score desc, id asc) occupy ids[:k] — expected
// O(n) quickselect with median-of-three pivots, replacing the former
// O(n log n) full sort in placement planning. ids[:k] is unordered
// internally; planning adopts it as a set.
func topKSelect(ids []int32, score []int64, k int) {
	lo, hi := 0, len(ids)
	if k <= 0 || k >= len(ids) {
		return
	}
	for hi-lo > 1 {
		p := partitionTopK(ids, score, lo, hi)
		if p == k || p == k-1 {
			return // entries [0,k) are exactly the k best
		}
		if p < k {
			lo = p + 1
		} else {
			hi = p
		}
	}
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
