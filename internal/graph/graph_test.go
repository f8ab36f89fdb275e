package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"salient/internal/rng"
)

func hasEdge(g *CSR, u, v int32) bool { return slices.Contains(g.Neighbors(u), v) }

func TestFromEdgeList(t *testing.T) {
	g, err := FromEdgeList(4, []int32{0, 0, 1, 2}, []int32{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if g.Degree(0) != 2 || g.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(3))
	}
	ns := g.Neighbors(0)
	if len(ns) != 2 {
		t.Fatalf("neighbors(0) = %v", ns)
	}
}

func TestFromEdgeListErrors(t *testing.T) {
	if _, err := FromEdgeList(2, []int32{0}, []int32{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FromEdgeList(2, []int32{0}, []int32{5}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := FromEdgeList(2, []int32{-1}, []int32{0}); err == nil {
		t.Fatal("negative node accepted")
	}
}

func TestUndirectedSymmetry(t *testing.T) {
	g, _ := FromEdgeList(5, []int32{0, 1, 2, 0, 4}, []int32{1, 2, 0, 0, 4})
	u := g.Undirected()
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < u.N; v++ {
		for _, w := range u.Neighbors(v) {
			if !hasEdge(u, w, v) {
				t.Fatalf("edge (%d,%d) has no reverse", v, w)
			}
			if w == v {
				t.Fatalf("self loop survived at %d", v)
			}
		}
	}
	// Duplicate edge (0,1)+(1,0 via symmetrization) must appear once.
	count := 0
	for _, w := range u.Neighbors(0) {
		if w == 1 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("edge (0,1) appears %d times", count)
	}
}

func TestUndirectedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := int32(2 + r.Intn(40))
		m := r.Intn(200)
		src := make([]int32, m)
		dst := make([]int32, m)
		for i := 0; i < m; i++ {
			src[i] = int32(r.Intn(int(n)))
			dst[i] = int32(r.Intn(int(n)))
		}
		g, err := FromEdgeList(n, src, dst)
		if err != nil {
			return false
		}
		u := g.Undirected()
		if u.Validate() != nil {
			return false
		}
		// Symmetric, loop-free, deduplicated, and contains every original
		// non-loop edge.
		for v := int32(0); v < n; v++ {
			ns := u.Neighbors(v)
			for i, w := range ns {
				if w == v || !hasEdge(u, w, v) {
					return false
				}
				if i > 0 && ns[i-1] >= w {
					return false // must be sorted strictly increasing
				}
			}
		}
		for i := range src {
			if src[i] != dst[i] && !hasEdge(u, src[i], dst[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeStats(t *testing.T) {
	g, _ := FromEdgeList(4, []int32{0, 0, 0, 1}, []int32{1, 2, 3, 2})
	if g.MaxDegree() != 3 {
		t.Fatalf("max degree = %d", g.MaxDegree())
	}
	if g.AvgDegree() != 1.0 {
		t.Fatalf("avg degree = %v", g.AvgDegree())
	}
}

func TestDegreeHistogram(t *testing.T) {
	// Node degrees: 3, 1, 0, 0.
	g, _ := FromEdgeList(4, []int32{0, 0, 0, 1}, []int32{1, 2, 3, 2})
	h := g.DegreeHistogram()
	// bucket 0: degree 0 (2 nodes); bucket 1: degree 1 (1 node);
	// bucket 2: degree 2-3 (1 node).
	if h[0] != 2 || h[1] != 1 || h[2] != 1 {
		t.Fatalf("histogram = %v", h)
	}
	var total int64
	for _, c := range h {
		total += c
	}
	if total != int64(g.N) {
		t.Fatalf("histogram total %d != N %d", total, g.N)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *CSR {
		g, _ := FromEdgeList(3, []int32{0, 1}, []int32{1, 2})
		return g
	}
	cases := []struct {
		name    string
		corrupt func(*CSR)
	}{
		{"out-of-range Adj", func(g *CSR) { g.Adj[0] = 99 }},
		{"negative Adj", func(g *CSR) { g.Adj[1] = -1 }},
		{"non-monotone Ptr", func(g *CSR) { g.Ptr[1] = 5 }},
		{"decreasing Ptr", func(g *CSR) { g.Ptr[1], g.Ptr[2] = 2, 1 }},
		{"non-zero Ptr[0]", func(g *CSR) { g.Ptr[0] = 1 }},
		{"wrong Ptr length", func(g *CSR) { g.Ptr = g.Ptr[:2] }},
		{"Ptr/Adj disagreement", func(g *CSR) { g.Ptr[g.N] = 1 }},
		{"negative node count", func(g *CSR) { g.N = -1; g.Ptr = []int64{0} }},
		{"truncated Adj", func(g *CSR) { g.Adj = g.Adj[:1] }},
	}
	for _, tc := range cases {
		g := fresh()
		tc.corrupt(g)
		if g.Validate() == nil {
			t.Fatalf("%s passed validation", tc.name)
		}
	}
	if err := fresh().Validate(); err != nil {
		t.Fatalf("healthy graph failed validation: %v", err)
	}
}

// TestFromEdgeListKeepsDuplicatesAndSelfLoops pins the documented contract:
// duplicate pairs and self-loops are kept verbatim (multigraph semantics),
// and Undirected is the dedup/symmetrize step.
func TestFromEdgeListKeepsDuplicatesAndSelfLoops(t *testing.T) {
	g, err := FromEdgeList(3, []int32{0, 0, 0, 1}, []int32{1, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 3 {
		t.Fatalf("degree(0) = %d, want 3 (duplicates and self-loop kept)", g.Degree(0))
	}
	dupes := 0
	for _, v := range g.Neighbors(0) {
		if v == 1 {
			dupes++
		}
	}
	if dupes != 2 {
		t.Fatalf("duplicate edge (0,1) stored %d times, want 2", dupes)
	}
	if !hasEdge(g, 0, 0) {
		t.Fatal("self-loop (0,0) dropped")
	}
	u := g.Undirected()
	if u.Degree(0) != 1 || hasEdge(u, 0, 0) {
		t.Fatalf("Undirected kept duplicates or self-loops: deg(0)=%d", u.Degree(0))
	}
	if _, err := FromEdgeList(-1, nil, nil); err == nil {
		t.Fatal("negative node count accepted")
	}
}

func TestInduced(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 attached to 0.
	g, err := FromEdgeList(4,
		[]int32{0, 1, 1, 2, 2, 0, 0, 3},
		[]int32{1, 0, 2, 1, 0, 2, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := g.Induced([]int32{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N != 2 {
		t.Fatalf("induced N=%d, want 2", sub.N)
	}
	// Only the 0<->2 edge survives; locals: 0->0, 2->1.
	if sub.NumEdges() != 2 {
		t.Fatalf("induced edges=%d, want 2", sub.NumEdges())
	}
	if !hasEdge(sub, 0, 1) || !hasEdge(sub, 1, 0) {
		t.Fatal("induced adjacency wrong")
	}
	if _, err := g.Induced([]int32{0, 0}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := g.Induced([]int32{99}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	empty, err := g.Induced(nil)
	if err != nil || empty.N != 0 || empty.NumEdges() != 0 {
		t.Fatalf("empty induced: %v %+v", err, empty)
	}
}

func TestInducedPreservesDegreesWithinSet(t *testing.T) {
	// Property: for the full node set, Induced is an isomorphic copy.
	g, err := FromEdgeList(5,
		[]int32{0, 1, 1, 2, 3, 4, 2, 0},
		[]int32{1, 0, 2, 1, 4, 3, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	all := []int32{0, 1, 2, 3, 4}
	sub, err := g.Induced(all)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < g.N; v++ {
		if sub.Degree(v) != g.Degree(v) {
			t.Fatalf("degree of %d changed: %d vs %d", v, sub.Degree(v), g.Degree(v))
		}
	}
}
