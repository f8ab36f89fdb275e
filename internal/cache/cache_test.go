package cache

import (
	"testing"

	"salient/internal/dataset"
	"salient/internal/graph"
	"salient/internal/rng"
	"salient/internal/sampler"
)

func lineGraph(t testing.TB, n int32) *graph.CSR {
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

func starGraph(t testing.TB, leaves int32) *graph.CSR {
	t.Helper()
	src := make([]int32, 0, 2*leaves)
	dst := make([]int32, 0, 2*leaves)
	for v := int32(1); v <= leaves; v++ {
		src = append(src, 0, v)
		dst = append(dst, v, 0)
	}
	g, err := graph.FromEdgeList(leaves+1, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStaticDegreePinsHubs(t *testing.T) {
	g := starGraph(t, 50)
	c, err := New(g, Options{Capacity: 1, Policy: StaticDegree})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Resident(0) {
		t.Fatal("hub node not cached by top-degree policy")
	}
	if !c.Touch(0) {
		t.Fatal("hub lookup missed")
	}
	if c.Touch(5) {
		t.Fatal("leaf lookup hit a capacity-1 cache")
	}
	if got := c.Stats(); got.Lookups != 2 || got.Hits != 1 {
		t.Fatalf("stats %+v, want 2 lookups / 1 hit", got)
	}
	if c.Stats().HitRate() != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", c.Stats().HitRate())
	}
}

func TestStaticNeverEvicts(t *testing.T) {
	g := starGraph(t, 10)
	c, err := New(g, Options{Capacity: 1, Policy: StaticDegree})
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(1); v <= 10; v++ {
		c.Touch(v)
	}
	if !c.Resident(0) || c.Len() != 1 {
		t.Fatal("static cache mutated by misses")
	}
}

func TestZeroCapacity(t *testing.T) {
	g := lineGraph(t, 10)
	for _, p := range []Policy{StaticDegree, VIP} {
		c, err := New(g, Options{Capacity: 0, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		if c.Touch(1) {
			t.Fatalf("%v: hit with zero capacity", p)
		}
		if c.Len() != 0 {
			t.Fatalf("%v: resident rows with zero capacity", p)
		}
	}
	if _, err := New(g, Options{Capacity: -1, Policy: VIP}); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestCapacityClampedToGraph(t *testing.T) {
	g := lineGraph(t, 10)
	c, err := New(g, Options{Capacity: 1000, Policy: StaticDegree})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 10 {
		t.Fatalf("%d resident rows, want the placement clamped to all 10 nodes", c.Len())
	}
	for v := int32(0); v < 10; v++ {
		if !c.Touch(v) {
			t.Fatalf("full-graph cache missed node %d", v)
		}
	}
}

// TestStaticCacheAbsorbsPowerLawTraffic is the experiment behind the §8
// claim: on a power-law graph, caching a small top-degree fraction absorbs
// a disproportionate share of sampled feature traffic.
func TestStaticCacheAbsorbsPowerLawTraffic(t *testing.T) {
	ds, err := dataset.Load(dataset.Products, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ds.G, Options{Capacity: int(ds.G.N) / 10, Policy: StaticDegree}) // 10% of rows
	if err != nil {
		t.Fatal(err)
	}
	sm := sampler.New(ds.G, []int{10, 5}, sampler.FastConfig())
	r := rng.New(1)
	for b := 0; b < 8; b++ {
		lo := (b * 32) % (len(ds.Train) - 32)
		m := sm.Sample(r, ds.Train[lo:lo+32])
		touchAll(c, m.NodeIDs)
	}
	if hr := c.Stats().HitRate(); hr < 0.18 {
		t.Fatalf("10%% degree cache absorbed only %.1f%% of traffic on a power-law graph", 100*hr)
	}
}

func TestPolicyString(t *testing.T) {
	if StaticDegree.String() != "static-degree" || VIP.String() != "vip" {
		t.Fatal("policy names wrong")
	}
}

// touchAll records one access for each of ids.
func touchAll(c *Cache, ids []int32) {
	for _, v := range ids {
		c.Touch(v)
	}
}
