package cache

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// sortTopK is the oracle for TopK: full sort under the same
// (score desc, id asc) order.
func sortTopK(ids []int32, score []int64, k int) []int32 {
	type entry struct {
		id int32
		sc int64
	}
	es := make([]entry, len(ids))
	for i := range ids {
		es[i] = entry{ids[i], score[i]}
	}
	sort.Slice(es, func(a, b int) bool {
		if es[a].sc != es[b].sc {
			return es[a].sc > es[b].sc
		}
		return es[a].id < es[b].id
	})
	out := make([]int32, 0, k)
	for i := 0; i < k && i < len(es); i++ {
		out = append(out, es[i].id)
	}
	return out
}

func asSet(ids []int32) map[int32]bool {
	m := make(map[int32]bool, len(ids))
	for _, v := range ids {
		m[v] = true
	}
	return m
}

func TestTopKSelectMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(64)
		ids := make([]int32, n)
		score := make([]int64, n)
		for i := range ids {
			ids[i] = int32(i)
			score[i] = int64(r.Intn(8)) // many ties
		}
		if trial%2 == 1 { // even trials keep ID order, as the planners build it
			r.Shuffle(n, func(a, b int) {
				ids[a], ids[b] = ids[b], ids[a]
				score[a], score[b] = score[b], score[a]
			})
		}
		// k past n must return every id, as a planner whose budget
		// exceeds its candidates gets.
		k := r.Intn(n + 2)
		want := asSet(sortTopK(ids, score, k))
		got := asSet(TopK(ids, score, k))
		if len(got) != len(want) {
			t.Fatalf("trial %d: k=%d got %d ids, want %d", trial, k, len(got), len(want))
		}
		for v := range want {
			if !got[v] {
				t.Fatalf("trial %d: k=%d missing id %d from selection", trial, k, v)
			}
		}
	}
}

func TestSketchObserveAndCount(t *testing.T) {
	s := NewSketch(8)
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	for i := 0; i < 5; i++ {
		s.Observe(3)
	}
	s.Observe(0)
	s.Observe(-1) // ignored
	s.Observe(8)  // ignored
	if got := s.Count(3); got != 5 {
		t.Fatalf("Count(3) = %d, want 5", got)
	}
	if got := s.Count(0); got != 1 {
		t.Fatalf("Count(0) = %d, want 1", got)
	}
	if got := s.Count(-1); got != 0 {
		t.Fatalf("Count(-1) = %d, want 0", got)
	}
	if got := s.Observations(); got != 6 {
		t.Fatalf("Observations = %d, want 6", got)
	}
	s.Decay()
	if got := s.Count(3); got != 2 {
		t.Fatalf("after Decay, Count(3) = %d, want 2", got)
	}
	if got := s.Count(0); got != 0 {
		t.Fatalf("after Decay, Count(0) = %d, want 0", got)
	}
	if got := s.Observations(); got != 2 {
		t.Fatalf("after Decay, Observations = %d, want 2", got)
	}
}

// TestSketchGrowKeepsCounts: growing the sketch (in place within its
// backing array, or by reallocation) keeps every count and makes the new
// IDs countable.
func TestSketchGrowKeepsCounts(t *testing.T) {
	s := NewSketch(2)
	for i := 0; i < 3; i++ {
		s.Observe(1)
	}
	s.Observe(2) // out of range: dropped
	s.Grow(1)    // shrinking is a no-op
	for _, n := range []int{3, 4, 100} {
		s.Grow(n)
		if s.Len() != n {
			t.Fatalf("Grow(%d): Len = %d", n, s.Len())
		}
		s.Observe(int32(n - 1))
		if got := s.Count(1); got != 3 {
			t.Fatalf("after Grow(%d), Count(1) = %d, want 3", n, got)
		}
	}
	for _, v := range []int32{2, 3, 99} {
		if got := s.Count(v); got != 1 {
			t.Fatalf("Count(%d) = %d, want 1", v, got)
		}
	}
	if got := s.Observations(); got != 6 {
		t.Fatalf("Observations = %d, want 6", got)
	}
}

func TestSketchConcurrentObserveExact(t *testing.T) {
	const workers, perWorker = 8, 1000
	s := NewSketch(4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Observe(int32(w % 4))
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for v := int32(0); v < 4; v++ {
		total += int64(s.Count(v))
	}
	if total != workers*perWorker {
		t.Fatalf("total counts = %d, want %d (CAS increments must not lose updates)", total, workers*perWorker)
	}
	if s.Observations() != workers*perWorker {
		t.Fatalf("Observations = %d, want %d", s.Observations(), workers*perWorker)
	}
}

// TestPlanVIPUnitCostMatchesTopK checks the VIP placement end to end: with
// every row costing one slot, Cache.Plan must pick exactly the top-capacity
// observed nodes by access count (lower id on ties), for budgets from zero
// to past the node count.
func TestPlanVIPUnitCostMatchesTopK(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(40)
		k := r.Intn(n + 2)
		g := lineGraph(t, int32(n))
		c, err := New(g, Options{Capacity: k, Policy: VIP})
		if err != nil {
			t.Fatal(err)
		}
		var ids []int32
		var freq []int64
		for v := int32(0); v < int32(n); v++ {
			f := r.Intn(6)
			for i := 0; i < f; i++ {
				c.Touch(v)
			}
			if f > 0 { // VIP never pins an untouched row
				ids = append(ids, v)
				freq = append(freq, int64(f))
			}
		}
		got := asSet(c.Plan(g))
		want := asSet(sortTopK(ids, freq, k))
		if len(got) != len(want) {
			t.Fatalf("trial %d: k=%d size %d want %d", trial, k, len(got), len(want))
		}
		for v := range want {
			if !got[v] {
				t.Fatalf("trial %d: k=%d missing %d", trial, k, v)
			}
		}
	}
}

func TestVIPCachePlanFollowsTraffic(t *testing.T) {
	g := lineGraph(t, 16)
	c, err := New(g, Options{Capacity: 2, Policy: VIP})
	if err != nil {
		t.Fatal(err)
	}
	// Cold: no traffic, nothing resident.
	if c.Len() != 0 {
		t.Fatalf("cold VIP cache has %d resident rows, want 0", c.Len())
	}
	// Hammer nodes 5 and 9; brush node 2 once.
	for i := 0; i < 10; i++ {
		c.Touch(5)
		c.Touch(9)
	}
	c.Touch(2)
	c.Rebuild(g)
	if !c.Resident(5) || !c.Resident(9) {
		t.Fatalf("hot nodes not resident after rebuild: 5=%v 9=%v", c.Resident(5), c.Resident(9))
	}
	if c.Resident(2) {
		t.Fatalf("cold node 2 resident with capacity 2")
	}
	// Misses on non-resident rows must not insert (placement-only policy).
	if c.Touch(3) {
		t.Fatalf("unexpected hit on node 3")
	}
	if c.Resident(3) {
		t.Fatalf("VIP inserted a row on a miss")
	}
	// Budget never exceeded.
	if c.Len() > c.Capacity() {
		t.Fatalf("resident %d > capacity %d", c.Len(), c.Capacity())
	}
}

func TestVIPCacheDecayShiftsPlacement(t *testing.T) {
	g := lineGraph(t, 8)
	c, err := New(g, Options{Capacity: 1, Policy: VIP})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		c.Touch(1)
	}
	c.Rebuild(g)
	if !c.Resident(1) {
		t.Fatalf("node 1 should be resident")
	}
	// Traffic shifts to node 6. Each Rebuild halves old counts, so after a
	// few refreshes node 6 overtakes node 1.
	for r := 0; r < 4; r++ {
		for i := 0; i < 8; i++ {
			c.Touch(6)
		}
		c.Rebuild(g)
	}
	if !c.Resident(6) {
		t.Fatalf("placement did not follow shifted traffic to node 6")
	}
	if c.Resident(1) {
		t.Fatalf("stale hot node 1 still resident with capacity 1")
	}
}
