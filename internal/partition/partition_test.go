package partition

import (
	"testing"
	"testing/quick"

	"salient/internal/dataset"
	"salient/internal/graph"
)

func productsGraph(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Load(dataset.Products, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRandomAssignsAllNodes(t *testing.T) {
	ds := productsGraph(t)
	a, err := Random(ds.G, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for _, p := range a.Part {
		if p < 0 || p >= 4 {
			t.Fatalf("part %d out of range", p)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c == 0 {
			t.Fatalf("part %d empty", p)
		}
	}
}

func TestLDGCoversAndBalances(t *testing.T) {
	ds := productsGraph(t)
	for _, parts := range []int{2, 4, 8} {
		a, err := LDG(ds.G, parts)
		if err != nil {
			t.Fatal(err)
		}
		q := Evaluate(ds.G, a)
		if q.Balance > 1.3 {
			t.Fatalf("parts=%d: LDG balance %.2f too skewed", parts, q.Balance)
		}
		if q.MinPart == 0 {
			t.Fatalf("parts=%d: empty part", parts)
		}
	}
}

func TestLDGBeatsRandomOnEdgeCut(t *testing.T) {
	// The point of locality-aware partitioning: on a community-structured
	// graph, LDG's edge cut is well below random's (which approaches
	// 1 - 1/parts).
	ds := productsGraph(t)
	const parts = 4
	ra, err := Random(ds.G, parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	la, err := LDG(ds.G, parts)
	if err != nil {
		t.Fatal(err)
	}
	rq, lq := Evaluate(ds.G, ra), Evaluate(ds.G, la)
	if rq.EdgeCut < 0.6 {
		t.Fatalf("random cut %.3f suspiciously low for 4 parts", rq.EdgeCut)
	}
	if lq.EdgeCut >= rq.EdgeCut*0.9 {
		t.Fatalf("LDG cut %.3f not clearly below random %.3f", lq.EdgeCut, rq.EdgeCut)
	}
}

func TestEvaluateSinglePart(t *testing.T) {
	ds := productsGraph(t)
	a, err := LDG(ds.G, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := Evaluate(ds.G, a)
	if q.EdgeCut != 0 || q.CutEdges != 0 {
		t.Fatalf("single part has cut %v", q.EdgeCut)
	}
	if q.Balance < 0.99 || q.Balance > 1.01 {
		t.Fatalf("single-part balance %v", q.Balance)
	}
}

func TestPartitionValidation(t *testing.T) {
	ds := productsGraph(t)
	if _, err := LDG(ds.G, 0); err == nil {
		t.Fatal("0 parts accepted")
	}
	if _, err := Random(ds.G, int(ds.G.N)+1, 1); err == nil {
		t.Fatal("more parts than nodes accepted")
	}
}

// Property: every partitioner covers all nodes with in-range parts, and
// Evaluate's cut is symmetric (counted once per undirected edge).
func TestPartitionProperties(t *testing.T) {
	small, err := dataset.Load(dataset.Arxiv, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	g := small.G
	f := func(partsRaw uint8, seed uint64) bool {
		parts := int(partsRaw%7) + 1
		for _, mk := range []func() (*Assignment, error){
			func() (*Assignment, error) { return Random(g, parts, seed) },
			func() (*Assignment, error) { return LDG(g, parts) },
		} {
			a, err := mk()
			if err != nil {
				return false
			}
			for _, p := range a.Part {
				if p < 0 || int(p) >= parts {
					return false
				}
			}
			q := Evaluate(g, a)
			if q.CutEdges < 0 || q.CutEdges > g.NumEdges()/2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestHashPartitioningDeterministic guards the Random hash placement.
func TestRandomDeterministicInSeed(t *testing.T) {
	g := line(t, 64)
	a1, _ := Random(g, 4, 9)
	a2, _ := Random(g, 4, 9)
	a3, _ := Random(g, 4, 10)
	same := 0
	for i := range a1.Part {
		if a1.Part[i] != a2.Part[i] {
			t.Fatal("same seed, different assignment")
		}
		if a1.Part[i] == a3.Part[i] {
			same++
		}
	}
	if same == len(a1.Part) {
		t.Fatal("different seeds produced identical assignment")
	}
}

func line(t testing.TB, n int32) *graph.CSR {
	t.Helper()
	src := make([]int32, 0, 2*(n-1))
	dst := make([]int32, 0, 2*(n-1))
	for v := int32(0); v < n-1; v++ {
		src = append(src, v, v+1)
		dst = append(dst, v+1, v)
	}
	g, err := graph.FromEdgeList(n, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
