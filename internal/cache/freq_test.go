package cache

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// sortTopK is the oracle for topKSelect: full sort under the same
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
		r.Shuffle(n, func(a, b int) {
			ids[a], ids[b] = ids[b], ids[a]
			score[a], score[b] = score[b], score[a]
		})
		k := r.Intn(n + 1)
		want := asSet(sortTopK(ids, score, k))
		topKSelect(ids, score, k)
		got := asSet(ids[:k])
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

// TestPlanVIPBudgetNeverExceeded: under heterogeneous row costs the
// admitted set's total bytes never exceed the budget, for random inputs.
func TestPlanVIPBudgetNeverExceeded(t *testing.T) {
	f := func(rawFreq []uint16, rawBytes []uint8, rawBudget uint16) bool {
		n := len(rawFreq)
		if len(rawBytes) < n {
			n = len(rawBytes)
		}
		ids := make([]int32, n)
		freq := make([]int64, n)
		rowBytes := make([]int64, n)
		cost := make(map[int32]int64, n)
		for i := 0; i < n; i++ {
			ids[i] = int32(i)
			freq[i] = int64(rawFreq[i])
			rowBytes[i] = int64(rawBytes[i]) // may be 0: skipped by planner
			cost[ids[i]] = rowBytes[i]
		}
		budget := int64(rawBudget)
		got := PlanVIP(ids, freq, rowBytes, budget)
		var used int64
		seen := make(map[int32]bool, len(got))
		for _, v := range got {
			if seen[v] {
				return false // duplicates would double-pin a row
			}
			seen[v] = true
			used += cost[v]
		}
		return used <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanVIPAdmissionMonotonicity: raising one candidate's frequency never
// evicts it from the admitted set — if it was in, it stays in. (Note the
// dual is false by design: a larger budget can admit one expensive hot row
// in place of several cheap ones, so admission counts are not monotone in
// budget; bytes-within-budget is the invariant, pinned above.)
func TestPlanVIPAdmissionMonotonicity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(24)
		ids := make([]int32, n)
		freq := make([]int64, n)
		rowBytes := make([]int64, n)
		for i := 0; i < n; i++ {
			ids[i] = int32(i)
			freq[i] = int64(r.Intn(50))
			rowBytes[i] = int64(1 + r.Intn(16))
		}
		budget := int64(1 + r.Intn(64))
		base := asSet(PlanVIP(ids, freq, rowBytes, budget))

		// Bump one admitted candidate's frequency: must stay admitted.
		for _, v := range ids {
			if !base[v] {
				continue
			}
			freq2 := append([]int64(nil), freq...)
			freq2[v] += int64(1 + r.Intn(100))
			after := asSet(PlanVIP(ids, freq2, rowBytes, budget))
			if !after[v] {
				t.Fatalf("trial %d: id %d dropped after its frequency rose", trial, v)
			}
			break
		}
	}
}

// TestPlanVIPCostAware: with equal frequencies, cheap rows fill the budget
// that one expensive row would blow; with unequal frequencies, the hottest
// rows win while they fit.
func TestPlanVIPCostAware(t *testing.T) {
	// Rows 0..3 are int8-narrow (4 bytes); row 4 is fp32-wide (16 bytes).
	ids := []int32{0, 1, 2, 3, 4}
	rowBytes := []int64{4, 4, 4, 4, 16}

	// Same frequency everywhere: ids tie-break ascending, all four narrow
	// rows fit a 16-byte budget; the wide row does not join them.
	got := asSet(PlanVIP(ids, []int64{5, 5, 5, 5, 5}, rowBytes, 16))
	for v := int32(0); v < 4; v++ {
		if !got[v] {
			t.Fatalf("narrow row %d not admitted under equal frequency", v)
		}
	}
	if got[4] {
		t.Fatalf("wide row admitted beyond budget")
	}

	// Wide row much hotter: it takes the whole budget, then cheaper colder
	// rows that still fit are admitted after it.
	got = asSet(PlanVIP(ids, []int64{1, 1, 1, 1, 100}, rowBytes, 20))
	if !got[4] {
		t.Fatalf("hottest (wide) row not admitted")
	}
	if !got[0] {
		t.Fatalf("remaining 4 bytes should admit the cheapest tie-break row 0")
	}
	if got[1] || got[2] || got[3] {
		t.Fatalf("over-admission past the 20-byte budget: %v", got)
	}
}

func TestPlanVIPUnitCostMatchesTopK(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(40)
		ids := make([]int32, n)
		freq := make([]int64, n)
		for i := 0; i < n; i++ {
			ids[i] = int32(i)
			freq[i] = int64(r.Intn(6))
		}
		k := int64(r.Intn(n + 2))
		got := asSet(PlanVIP(ids, freq, nil, k))
		want := asSet(sortTopK(ids, freq, int(k)))
		if len(got) != len(want) {
			t.Fatalf("trial %d: size %d want %d", trial, len(got), len(want))
		}
		for v := range want {
			if !got[v] {
				t.Fatalf("trial %d: missing %d", trial, v)
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
		t.Fatalf("VIP inserted on miss like LRU")
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

func TestPerShardBudgets(t *testing.T) {
	g := lineGraph(t, 12)
	const parts = 3
	partOf := func(v int32) int32 { return v % parts }
	c, err := New(g, Options{
		Capacity: 5, // 2 + 2 + 1 across shards 0,1,2
		Policy:   VIP,
		PartOf:   partOf,
		Parts:    parts,
	})
	if err != nil {
		t.Fatal(err)
	}
	// All traffic lands on shard-0 nodes (0, 3, 6, 9): without per-shard
	// budgets they'd take 4 of 5 slots; with them, shard 0 gets exactly 2.
	for i := 0; i < 20; i++ {
		c.Touch(0)
		c.Touch(3)
		c.Touch(6)
		c.Touch(9)
	}
	c.Touch(1) // shard 1
	c.Touch(2) // shard 2
	c.Rebuild(g)
	perShard := map[int32]int{}
	for v := int32(0); v < g.NumNodes(); v++ {
		if c.Resident(v) {
			perShard[partOf(v)]++
		}
	}
	if perShard[0] != 2 {
		t.Fatalf("shard 0 resident = %d, want exactly its budget 2 (got map %v)", perShard[0], perShard)
	}
	if perShard[1] != 1 || perShard[2] != 1 {
		t.Fatalf("cold shards should hold their observed rows: %v", perShard)
	}
	if c.Len() > c.Capacity() {
		t.Fatalf("resident %d exceeds capacity %d", c.Len(), c.Capacity())
	}
}

func TestPerShardBudgetsStaticDegree(t *testing.T) {
	// Star: node 0 is the hub. With per-shard budgets over 2 shards
	// (even/odd), the hub takes shard 0's slot and shard 1 still gets its
	// own best node instead of being starved by global ranking.
	g := starGraph(t, 6) // nodes 0..6, node 0 has degree 6, leaves degree 1
	c, err := New(g, Options{
		Capacity: 2,
		Policy:   StaticDegree,
		PartOf:   func(v int32) int32 { return v % 2 },
		Parts:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Resident(0) {
		t.Fatalf("hub not resident")
	}
	if !c.Resident(1) {
		t.Fatalf("shard 1's best node (lowest-id leaf) not resident; per-shard budget not honored")
	}
}
