package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// adjSets returns the neighbor multiset of every node of t, sorted per node
// so representation (CSR vs overlay, pre vs post compaction) cannot matter.
func adjSets(t Topology) [][]int32 {
	out := make([][]int32, t.NumNodes())
	for v := int32(0); v < t.NumNodes(); v++ {
		ns := append([]int32{}, t.Neighbors(v)...)
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		out[v] = ns
	}
	return out
}

// adjSetsUnique is adjSets with duplicates collapsed — the comparison basis
// against FromEdgeList references, which keep duplicate pairs while Dynamic
// enforces set semantics.
func adjSetsUnique(t Topology) [][]int32 {
	out := adjSets(t)
	for v, ns := range out {
		uniq := ns[:0]
		var prev int32 = -1
		for i, u := range ns {
			if i == 0 || u != prev {
				uniq = append(uniq, u)
				prev = u
			}
		}
		out[v] = uniq
	}
	return out
}

func mustCSR(t *testing.T, n int32, src, dst []int32) *CSR {
	t.Helper()
	g, err := FromEdgeList(n, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStaticSnapshotAliasesBase(t *testing.T) {
	g := mustCSR(t, 4, []int32{0, 1, 2}, []int32{1, 2, 3})
	s := Static(g)
	if s.Version() != 0 {
		t.Fatalf("static snapshot version %d, want 0", s.Version())
	}
	if s.Snapshot() != s {
		t.Fatal("a snapshot's Snapshot() must return itself")
	}
	if s.NumNodes() != g.N || s.NumEdges() != g.NumEdges() {
		t.Fatalf("static snapshot shape %d/%d, want %d/%d", s.NumNodes(), s.NumEdges(), g.N, g.NumEdges())
	}
	for v := int32(0); v < g.N; v++ {
		ns, base := s.Neighbors(v), g.Neighbors(v)
		if len(ns) != len(base) {
			t.Fatalf("node %d: snapshot degree %d, base %d", v, len(ns), len(base))
		}
		if len(ns) > 0 && &ns[0] != &base[0] {
			t.Fatalf("node %d: zero-delta snapshot must alias base adjacency", v)
		}
	}
}

func TestDynamicZeroDeltaIsBase(t *testing.T) {
	g := mustCSR(t, 5, []int32{0, 0, 1, 3}, []int32{1, 2, 4, 3})
	d, err := NewDynamic(g, DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := d.Snapshot()
	if s.Version() != 0 {
		t.Fatalf("version %d, want 0", s.Version())
	}
	if s2 := d.Snapshot(); s2 != s {
		t.Fatal("snapshot of an unchanged graph must be cached (same pointer)")
	}
	if !reflect.DeepEqual(adjSets(s), adjSets(g)) {
		t.Fatal("zero-delta snapshot adjacency differs from base")
	}
	// Zero-delta reads must alias the base arrays directly (this is what
	// keeps the dynamic path bit-identical AND equally fast).
	if ns := s.Neighbors(0); len(ns) > 0 && &ns[0] != &g.Neighbors(0)[0] {
		t.Fatal("zero-delta snapshot must alias base adjacency")
	}
}

func TestDynamicAddEdgesAndNodes(t *testing.T) {
	g := mustCSR(t, 3, []int32{0}, []int32{1})
	d, err := NewDynamic(g, DynamicOptions{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	old := d.Snapshot()

	if _, err := d.AddEdges([]int32{0, 2}, []int32{2, 0}); err != nil {
		t.Fatal(err)
	}
	first, err := d.AddNodes(2)
	if err != nil {
		t.Fatal(err)
	}
	if first != 3 {
		t.Fatalf("first new node %d, want 3", first)
	}
	if _, err := d.AddEdges([]int32{3, 4}, []int32{4, 1}); err != nil {
		t.Fatal(err)
	}
	if v := d.Version(); v != 3 {
		t.Fatalf("version %d after 3 mutations, want 3", v)
	}

	s := d.Snapshot()
	if s.Version() != 3 || s.NumNodes() != 5 || s.NumEdges() != g.NumEdges()+4 {
		t.Fatalf("snapshot version=%d n=%d e=%d", s.Version(), s.NumNodes(), s.NumEdges())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{1, 2}, {}, {0}, {4}, {1}}
	if got := adjSets(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot adjacency %v, want %v", got, want)
	}
	// The pre-update snapshot is immutable: still the old view.
	if old.NumNodes() != 3 || old.NumEdges() != 1 || old.Degree(0) != 1 {
		t.Fatal("earlier snapshot mutated by later updates")
	}

	// Out-of-range edges are rejected atomically.
	if _, err := d.AddEdges([]int32{0, 0}, []int32{1, 99}); err == nil {
		t.Fatal("out-of-range AddEdges accepted")
	}
	// Duplicate inserts are dropped, not double-counted.
	if n, err := d.AddEdges([]int32{0, 0}, []int32{2, 2}); err != nil || n != 0 {
		t.Fatalf("re-inserting existing edge applied %d (err %v), want 0", n, err)
	}
	if d.Snapshot().NumEdges() != s.NumEdges() {
		t.Fatal("failed AddEdges applied a prefix")
	}
	if d.Version() != 3 {
		t.Fatalf("rejected/no-op AddEdges bumped version to %d", d.Version())
	}
}

func TestDynamicCompaction(t *testing.T) {
	g := mustCSR(t, 4, []int32{0, 1}, []int32{1, 2})
	d, err := NewDynamic(g, DynamicOptions{CompactThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := d.AddEdges([]int32{0, 2, 3, 3}, []int32{3, 3, 0, 1}); err != nil || n != 4 {
		t.Fatalf("applied %d, err %v", n, err)
	}
	before := d.Snapshot()
	if d.Compactions() != 1 {
		t.Fatalf("compactions %d, want 1 (threshold crossed)", d.Compactions())
	}
	if before.overlay != nil {
		t.Fatal("freshly compacted snapshot still carries an overlay")
	}
	if before.Version() != 1 {
		t.Fatalf("compaction changed the version: %d", before.Version())
	}
	want := [][]int32{{1, 3}, {2}, {3}, {0, 1}}
	if got := adjSets(before); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-compaction adjacency %v, want %v", got, want)
	}
	if err := before.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := before.base.Validate(); err != nil {
		t.Fatalf("compacted base CSR invalid: %v", err)
	}
}

func TestSnapshotCSRMaterialization(t *testing.T) {
	g := mustCSR(t, 3, []int32{0, 1}, []int32{1, 2})
	d, err := NewDynamic(g, DynamicOptions{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddEdges([]int32{2}, []int32{0}); err != nil {
		t.Fatal(err)
	}
	s := d.Snapshot()
	c := s.CSR()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(adjSets(c), adjSets(s)) {
		t.Fatal("materialized CSR differs from snapshot")
	}
}

// TestDynamicRoundTripProperty is the satellite property test: random edge
// lists round-tripped through FromEdgeList → Dynamic deltas → Snapshot →
// compaction must hold adjacency-(multi)set equality at every stage. An
// arbitrary split point divides each edge list into a base built by
// FromEdgeList and deltas applied through AddEdges (in arbitrary chunks),
// and the whole graph is compared against FromEdgeList over the full list.
func TestDynamicRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := int32(2 + r.Intn(30))
		m := r.Intn(120)
		src := make([]int32, m)
		dst := make([]int32, m)
		for i := range src {
			src[i] = int32(r.Intn(int(n)))
			dst[i] = int32(r.Intn(int(n))) // self-loops and duplicates allowed
		}
		ref, err := FromEdgeList(n, src, dst)
		if err != nil {
			t.Logf("seed %d: FromEdgeList: %v", seed, err)
			return false
		}
		// Dynamic enforces set semantics, so the reference is the SET view
		// of the multigraph FromEdgeList builds (the "adjacency-set
		// equality" the round-trip is specified over).
		want := adjSetsUnique(ref)

		split := 0
		if m > 0 {
			split = r.Intn(m + 1)
		}
		base, err := FromEdgeList(n, src[:split], dst[:split])
		if err != nil {
			return false
		}
		// Random compaction threshold: -1 (never), tiny (often), or huge.
		thresholds := []int64{-1, 1, 3, 1 << 40}
		d, err := NewDynamic(base, DynamicOptions{CompactThreshold: thresholds[r.Intn(len(thresholds))]})
		if err != nil {
			return false
		}
		// Apply the remaining edges in random chunks, snapshotting between
		// some of them (exercising cache invalidation and mid-churn views).
		for lo := split; lo < m; {
			hi := lo + 1 + r.Intn(m-lo)
			if _, err := d.AddEdges(src[lo:hi], dst[lo:hi]); err != nil {
				return false
			}
			if r.Intn(2) == 0 {
				if err := d.Snapshot().Validate(); err != nil {
					t.Logf("seed %d: mid-churn snapshot invalid: %v", seed, err)
					return false
				}
			}
			lo = hi
		}
		s := d.Snapshot()
		if err := s.Validate(); err != nil {
			t.Logf("seed %d: final snapshot invalid: %v", seed, err)
			return false
		}
		if got := adjSetsUnique(s); !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: snapshot adjacency %v, want %v", seed, got, want)
			return false
		}
		// Force a final compaction pass and re-check: representation change
		// must be invisible.
		d.mu.Lock()
		d.compactLocked()
		d.mu.Unlock()
		s2 := d.Snapshot()
		if got := adjSetsUnique(s2); !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: post-compaction adjacency %v, want %v", seed, got, want)
			return false
		}
		if err := s2.Validate(); err != nil {
			t.Logf("seed %d: post-compaction snapshot invalid: %v", seed, err)
			return false
		}
		// And the materialized CSR round-trips too.
		if got := adjSetsUnique(s2.CSR()); !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: materialized CSR diverges", seed)
			return false
		}
		// The delta suffix must never create duplicate adjacency entries:
		// the snapshot is already its own set wherever the base was one.
		base0, err := FromEdgeList(n, src[:split], dst[:split])
		if err != nil {
			return false
		}
		for v := int32(0); v < n; v++ {
			seen := map[int32]int{}
			for _, u := range base0.Neighbors(v) {
				seen[u]++
			}
			for _, u := range s2.Neighbors(v) {
				seen[u]--
			}
			for u, c := range seen {
				if c < -1 {
					t.Logf("seed %d: delta introduced duplicate edge (%d,%d)", seed, v, u)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicConcurrentMutators hammers AddEdges/AddNodes/Snapshot from
// many goroutines; run under -race this pins the mutator thread-safety
// contract, and the final snapshot must account for every applied edge.
func TestDynamicConcurrentMutators(t *testing.T) {
	g := mustCSR(t, 64, []int32{0, 1, 2}, []int32{1, 2, 3})
	d, err := NewDynamic(g, DynamicOptions{CompactThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers       = 4
		edgesPerChunk = 8
		chunks        = 25
	)
	var applied atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for c := 0; c < chunks; c++ {
				src := make([]int32, edgesPerChunk)
				dst := make([]int32, edgesPerChunk)
				for i := range src {
					src[i] = int32(r.Intn(64))
					dst[i] = int32(r.Intn(64))
				}
				a, err := d.AddEdges(src, dst)
				if err != nil {
					t.Error(err)
					return
				}
				applied.Add(int64(a))
				if c%5 == 0 {
					if _, err := d.AddNodes(1); err != nil {
						t.Error(err)
						return
					}
				}
				s := d.Snapshot()
				if err := s.Validate(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := d.Snapshot()
	wantEdges := g.NumEdges() + applied.Load()
	if s.NumEdges() != wantEdges {
		t.Fatalf("final snapshot has %d edges, want %d applied", s.NumEdges(), wantEdges)
	}
	if applied.Load() == 0 {
		t.Fatal("no edges applied at all")
	}
	wantNodes := int32(64 + writers*((chunks+4)/5))
	if s.NumNodes() != wantNodes {
		t.Fatalf("final snapshot has %d nodes, want %d", s.NumNodes(), wantNodes)
	}
	if d.Compactions() == 0 {
		t.Fatal("expected at least one compaction at threshold 64")
	}
}

func TestDynamicRejectsInvalidInput(t *testing.T) {
	g := mustCSR(t, 3, nil, nil)
	if _, err := NewDynamic(&CSR{N: 2, Ptr: []int64{0, 0}}, DynamicOptions{}); err == nil {
		t.Fatal("invalid base accepted")
	}
	d, err := NewDynamic(g, DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddNodes(0); err == nil {
		t.Fatal("AddNodes(0) accepted")
	}
	if _, err := d.AddEdges([]int32{0}, []int32{}); err == nil {
		t.Fatal("mismatched src/dst accepted")
	}
	if _, err := d.AddEdges([]int32{-1}, []int32{0}); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	if n, err := d.AddEdges(nil, nil); err != nil || n != 0 {
		t.Fatalf("empty AddEdges should be a no-op, got %d, %v", n, err)
	}
	if d.Version() != 0 {
		t.Fatalf("rejected/no-op mutations bumped version to %d", d.Version())
	}
}
