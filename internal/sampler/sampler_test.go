package sampler

import (
	"slices"
	"strings"
	"testing"

	"salient/internal/dataset"
	"salient/internal/graph"
	"salient/internal/rng"
)

func testGraph(t testing.TB) *graph.CSR {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "t", Nodes: 3000, EdgesPerNew: 6, FeatDim: 4, NumClasses: 4,
		Homophily: 0.5, NoiseScale: 1, TrainFrac: 0.5, ValFrac: 0.1, TestFrac: 0.4, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.G
}

func seeds(n int, stride int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i) * stride
	}
	return out
}

func TestSampleValidAcrossAllConfigs(t *testing.T) {
	g := testGraph(t)
	fanouts := []int{5, 3, 2}
	sds := seeds(32, 7)
	for _, cfg := range Enumerate() {
		s := New(g, fanouts, cfg)
		r := rng.New(99)
		for round := 0; round < 3; round++ { // repeated rounds exercise reuse paths
			m := s.Sample(r, sds)
			if err := m.Validate(); err != nil {
				t.Fatalf("%v round %d: %v", cfg, round, err)
			}
			if m.Batch != 32 || m.Blocks[len(m.Blocks)-1].NumDst != 32 {
				t.Fatalf("%v: batch bookkeeping wrong", cfg)
			}
			// Fanout bound and edge existence per block.
			for bi := range m.Blocks {
				b := &m.Blocks[bi]
				for v := int32(0); v < b.NumDst; v++ {
					ns := b.Neighbors(v)
					if len(ns) > fanouts[bi] {
						t.Fatalf("%v block %d dst %d: %d sampled > fanout %d",
							cfg, bi, v, len(ns), fanouts[bi])
					}
					seen := map[int32]bool{}
					for _, u := range ns {
						if seen[u] {
							t.Fatalf("%v block %d dst %d: duplicate neighbor %d (replacement)", cfg, bi, v, u)
						}
						seen[u] = true
						if !slices.Contains(g.Neighbors(m.NodeIDs[v]), m.NodeIDs[u]) {
							t.Fatalf("%v block %d: edge (%d,%d) not in graph",
								cfg, bi, m.NodeIDs[v], m.NodeIDs[u])
						}
					}
					// When degree <= fanout, ALL neighbors must be present.
					if int(g.Degree(m.NodeIDs[v])) <= fanouts[bi] && len(ns) != int(g.Degree(m.NodeIDs[v])) {
						t.Fatalf("%v block %d dst %d: got %d of %d full neighbors",
							cfg, bi, v, len(ns), g.Degree(m.NodeIDs[v]))
					}
				}
			}
			// Node IDs must be unique (global->local bijection).
			seen := map[int32]bool{}
			for _, id := range m.NodeIDs {
				if seen[id] {
					t.Fatalf("%v: duplicate global node %d", cfg, id)
				}
				seen[id] = true
			}
		}
	}
}

func TestSeedsArePrefix(t *testing.T) {
	g := testGraph(t)
	s := New(g, []int{4, 4}, FastConfig())
	sds := seeds(16, 11)
	m := s.Sample(rng.New(1), sds)
	for i, want := range sds {
		if m.NodeIDs[i] != want {
			t.Fatalf("NodeIDs[%d] = %d, want seed %d", i, m.NodeIDs[i], want)
		}
	}
}

func TestDeterministicGivenRNG(t *testing.T) {
	g := testGraph(t)
	for _, cfg := range []Config{FastConfig(), BaselineConfig()} {
		a := New(g, []int{5, 3}, cfg).Sample(rng.New(7), seeds(16, 5))
		b := New(g, []int{5, 3}, cfg).Sample(rng.New(7), seeds(16, 5))
		if len(a.NodeIDs) != len(b.NodeIDs) {
			t.Fatalf("%v: node counts differ", cfg)
		}
		for i := range a.NodeIDs {
			if a.NodeIDs[i] != b.NodeIDs[i] {
				t.Fatalf("%v: node %d differs", cfg, i)
			}
		}
		for bi := range a.Blocks {
			for e := range a.Blocks[bi].Src {
				if a.Blocks[bi].Src[e] != b.Blocks[bi].Src[e] {
					t.Fatalf("%v: block %d edge %d differs", cfg, bi, e)
				}
			}
		}
	}
}

func TestConfigsAgreeOnNeighborhoodLaw(t *testing.T) {
	// All configurations implement the same sampling distribution; with
	// fanout >= max degree they must produce the *identical* full
	// neighborhood node set.
	g := testGraph(t)
	huge := int(g.MaxDegree()) + 1
	var want map[int32]bool
	for _, cfg := range Enumerate() {
		s := New(g, []int{huge, huge}, cfg)
		m := s.Sample(rng.New(3), seeds(8, 13))
		got := map[int32]bool{}
		for _, id := range m.NodeIDs {
			got[id] = true
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%v: exhaustive neighborhood size %d, want %d", cfg, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("%v: missing node %d", cfg, id)
			}
		}
	}
}

func TestExpansionGrowsPerHop(t *testing.T) {
	g := testGraph(t)
	s := New(g, []int{10, 10, 10}, FastConfig())
	m := s.Sample(rng.New(5), seeds(8, 17))
	// NumSrc strictly grows inward->outward for a connected-ish graph.
	if m.Blocks[2].NumSrc <= m.Blocks[2].NumDst {
		t.Fatal("hop 1 did not expand")
	}
	if m.Blocks[0].NumSrc <= m.Blocks[1].NumSrc {
		t.Fatal("outer hop did not expand beyond middle hop")
	}
}

func TestDuplicateSeedsPanic(t *testing.T) {
	g := testGraph(t)
	s := New(g, []int{2}, FastConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate seeds did not panic")
		}
	}()
	s.Sample(rng.New(1), []int32{3, 3})
}

func TestOutOfRangeSeedPanics(t *testing.T) {
	g := testGraph(t)
	s := New(g, []int{2}, FastConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range seed did not panic")
		}
	}()
	s.Sample(rng.New(1), []int32{g.N + 5})
}

func TestBadFanoutsPanic(t *testing.T) {
	g := testGraph(t)
	for _, f := range [][]int{{}, {0}, {3, -1}} {
		func() {
			defer func() { recover() }()
			New(g, f, FastConfig())
			t.Fatalf("fanouts %v accepted", f)
		}()
	}
}

func TestEnumerateCount(t *testing.T) {
	cfgs := Enumerate()
	if len(cfgs) != 96 {
		t.Fatalf("design space has %d points, want 96 (Figure 2)", len(cfgs))
	}
	seen := map[Config]bool{}
	for _, c := range cfgs {
		if seen[c] {
			t.Fatalf("duplicate config %v", c)
		}
		seen[c] = true
	}
}

func TestConfigStrings(t *testing.T) {
	s := FastConfig().String()
	if s != "idmap=flat,dedup=array,build=fused,reuse=all" {
		t.Fatalf("FastConfig string = %q", s)
	}
}

func TestPooledReuseKeepsResultsIndependentPerCall(t *testing.T) {
	// With ReusePooledMaps (but not PooledAll) the previous MFG must remain
	// intact after the next Sample.
	g := testGraph(t)
	cfg := Config{IDMap: IDMapFlat, Dedup: DedupArray, Build: BuildFused, Reuse: ReusePooledMaps}
	s := New(g, []int{4, 4}, cfg)
	r := rng.New(11)
	m1 := s.Sample(r, seeds(8, 3))
	snapshot := append([]int32(nil), m1.NodeIDs...)
	_ = s.Sample(r, seeds(8, 19))
	for i := range snapshot {
		if m1.NodeIDs[i] != snapshot[i] {
			t.Fatal("ReusePooledMaps clobbered a previously returned MFG")
		}
	}
}

func BenchmarkFastSampler(b *testing.B) {
	g := testGraph(b)
	s := New(g, []int{15, 10, 5}, FastConfig())
	r := rng.New(1)
	sds := seeds(64, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(r, sds)
	}
}

func BenchmarkBaselineSampler(b *testing.B) {
	g := testGraph(b)
	s := New(g, []int{15, 10, 5}, BaselineConfig())
	r := rng.New(1)
	sds := seeds(64, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(r, sds)
	}
}

func TestKindStringsExhaustive(t *testing.T) {
	for _, cfg := range Enumerate() {
		s := cfg.String()
		if s == "" {
			t.Fatalf("empty string for %+v", cfg)
		}
		for _, frag := range []string{"idmap=", "dedup=", "build=", "reuse="} {
			if !strings.Contains(s, frag) {
				t.Fatalf("config string %q missing %s", s, frag)
			}
		}
		if strings.Contains(s, "?") {
			t.Fatalf("unknown-kind marker in %q", s)
		}
	}
	if !strings.Contains(IDMapKind(99).String(), "?") ||
		!strings.Contains(DedupKind(99).String(), "?") ||
		!strings.Contains(ReuseKind(99).String(), "?") {
		t.Fatal("out-of-range kinds should render with a ? marker")
	}
}

func TestConfigAccessor(t *testing.T) {
	g := testGraph(t)
	s := New(g, []int{2}, FastConfig())
	if s.Config() != FastConfig() {
		t.Fatalf("Config() = %v, want the construction config", s.Config())
	}
}

// TestDirectMapperReusedAcrossBatches exercises the directMapper Reset path
// (epoch-tagged array) across many Sample calls.
func TestDirectMapperReusedAcrossBatches(t *testing.T) {
	g := testGraph(t)
	cfg := Config{IDMap: IDMapDirect, Dedup: DedupArray, Build: BuildFused, Reuse: ReusePooledAll}
	s := New(g, []int{3, 3}, cfg)
	r := rng.New(5)
	for i := 0; i < 50; i++ {
		seeds := []int32{int32(i % 60), int32(i%60 + 1)}
		m := s.Sample(r, seeds)
		if err := m.Validate(); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		// Local IDs must be dense and start with the seeds.
		if m.NodeIDs[0] != seeds[0] || m.NodeIDs[1] != seeds[1] {
			t.Fatalf("batch %d: seeds not first in NodeIDs", i)
		}
	}
}
