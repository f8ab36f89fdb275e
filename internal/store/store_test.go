package store

import (
	"sync"
	"testing"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/half"
	"salient/internal/partition"
	"salient/internal/rng"
	"salient/internal/sampler"
	"salient/internal/slicing"
)

func testDS(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Load(dataset.Arxiv, 0.05)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return ds
}

// sampleLists draws deterministic MFG node lists the way the executors do,
// so store tests gather realistic (seed-prefixed, duplicate-free) batches.
func sampleLists(t testing.TB, ds *dataset.Dataset, batches, batchSize int) ([][]int32, []int) {
	t.Helper()
	sm := sampler.New(ds.G, []int{10, 5}, sampler.FastConfig())
	lists := make([][]int32, 0, batches)
	seedCounts := make([]int, 0, batches)
	for b := 0; b < batches; b++ {
		lo := (b * batchSize) % len(ds.Train)
		hi := lo + batchSize
		if hi > len(ds.Train) {
			hi = len(ds.Train)
		}
		seeds := ds.Train[lo:hi]
		m := sm.Sample(rng.New(uint64(b)*0x9e3779b97f4a7c15+7), seeds).Clone()
		lists = append(lists, m.NodeIDs)
		seedCounts = append(seedCounts, len(seeds))
	}
	return lists, seedCounts
}

// gatherAll stages every list through st and returns the staged buffers.
func gatherAll(t testing.TB, st FeatureStore, lists [][]int32, batches []int) []*slicing.Pinned {
	t.Helper()
	out := make([]*slicing.Pinned, len(lists))
	for i, ids := range lists {
		buf := slicing.NewPinned(len(ids), st.Dim(), batches[i])
		if err := st.Gather(buf, ids, batches[i]); err != nil {
			t.Fatalf("gather %d: %v", i, err)
		}
		out[i] = buf
	}
	return out
}

func sameStaged(t *testing.T, name string, got, want *slicing.Pinned, batch int) {
	t.Helper()
	if got.N != want.N || got.Dim != want.Dim {
		t.Fatalf("%s: staged shape %dx%d, want %dx%d", name, got.N, got.Dim, want.N, want.Dim)
	}
	for i := range want.H {
		if got.H[i] != want.H[i] {
			t.Fatalf("%s: feature scalar %d differs", name, i)
		}
	}
	for i := 0; i < batch; i++ {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("%s: label %d differs", name, i)
		}
	}
}

// TestFlatMatchesDirectSliceHalf is the refactor regression gate: the Flat
// store must stage byte-for-byte what the pre-refactor direct SliceHalf
// path staged.
func TestFlatMatchesDirectSliceHalf(t *testing.T) {
	ds := testDS(t)
	lists, batches := sampleLists(t, ds, 6, 64)
	flat := NewFlat(ds)
	staged := gatherAll(t, flat, lists, batches)
	for i, ids := range lists {
		want := slicing.NewPinned(len(ids), ds.FeatDim, batches[i])
		if err := slicing.SliceHalf(want, ds.FeatHalf, ds.FeatDim, ds.Labels, ids, batches[i]); err != nil {
			t.Fatal(err)
		}
		sameStaged(t, "flat", staged[i], want, batches[i])
	}
}

// TestAllStoresStageIdenticalBatches: layout and caching may change transfer
// accounting, never batch contents.
func TestAllStoresStageIdenticalBatches(t *testing.T) {
	ds := testDS(t)
	lists, batches := sampleLists(t, ds, 5, 48)
	flat := NewFlat(ds)
	want := gatherAll(t, flat, lists, batches)

	ldg, err := partition.LDG(ds.G, 4)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(ds, ldg, half.FP16)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewCached(NewFlat(ds), ds.G, CacheOptions{Rows: int(ds.G.N) / 4, Policy: cache.StaticDegree})
	if err != nil {
		t.Fatal(err)
	}
	cachedSharded, err := NewCached(sharded, ds.G, CacheOptions{Rows: int(ds.G.N) / 4, Policy: cache.VIP})
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]FeatureStore{
		"sharded": sharded, "cached": cached, "cached+sharded": cachedSharded,
	} {
		got := gatherAll(t, st, lists, batches)
		for i := range lists {
			sameStaged(t, name, got[i], want[i], batches[i])
		}
	}
}

func TestFlatStripedMatchesSerial(t *testing.T) {
	ds := testDS(t)
	lists, batches := sampleLists(t, ds, 2, 32)
	flat := NewFlat(ds)
	for i, ids := range lists {
		serial := slicing.NewPinned(len(ids), ds.FeatDim, batches[i])
		if err := flat.Gather(serial, ids, batches[i]); err != nil {
			t.Fatal(err)
		}
		striped := slicing.NewPinned(len(ids), ds.FeatDim, batches[i])
		err := flat.GatherStriped(striped, ids, batches[i], 4, func(stripes []func()) {
			var wg sync.WaitGroup
			for _, s := range stripes {
				wg.Add(1)
				go func(s func()) { defer wg.Done(); s() }(s)
			}
			wg.Wait()
		})
		if err != nil {
			t.Fatal(err)
		}
		sameStaged(t, "striped", striped, serial, batches[i])
	}
}

// TestCachedForwardsStripedGather: wrapping a striped-capable store in a
// cache must keep the striped kernel available (the PyG executor's model)
// and still settle the cache bill.
func TestCachedForwardsStripedGather(t *testing.T) {
	ds := testDS(t)
	lists, batches := sampleLists(t, ds, 2, 32)
	cached, err := NewCached(NewFlat(ds), ds.G, CacheOptions{Rows: int(ds.G.N) / 4, Policy: cache.StaticDegree})
	if err != nil {
		t.Fatal(err)
	}
	sg, ok := FeatureStore(cached).(StripedGatherer)
	if !ok {
		t.Fatal("Cached over Flat does not expose GatherStriped")
	}
	want := gatherAll(t, NewFlat(ds), lists, batches)
	for i, ids := range lists {
		buf := slicing.NewPinned(len(ids), cached.Dim(), batches[i])
		err := sg.GatherStriped(buf, ids, batches[i], 4, func(stripes []func()) {
			for _, s := range stripes {
				s()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		sameStaged(t, "cached-striped", buf, want[i], batches[i])
	}
	if st := cached.Stats(); st.RowsSaved == 0 || st.CacheLookups == 0 {
		t.Fatalf("striped gather skipped the cache bill: %+v", st)
	}
}

func TestGatherRejectsBadInput(t *testing.T) {
	ds := testDS(t)
	ldg, err := partition.LDG(ds.G, 2)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(ds, ldg, half.FP16)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewCached(NewFlat(ds), ds.G, CacheOptions{Rows: 16, Policy: cache.StaticDegree})
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]FeatureStore{
		"flat": NewFlat(ds), "sharded": sharded, "cached": cached,
	} {
		buf := slicing.NewPinned(4, ds.FeatDim, 4)
		if err := st.Gather(buf, []int32{0, int32(ds.G.N)}, 1); err == nil {
			t.Fatalf("%s: out-of-range node accepted", name)
		}
		if err := st.Gather(buf, []int32{0, 1}, 3); err == nil {
			t.Fatalf("%s: batch > nodes accepted", name)
		}
	}
}

func TestFlatAccounting(t *testing.T) {
	ds := testDS(t)
	flat := NewFlat(ds)
	lists, batches := sampleLists(t, ds, 3, 32)
	gatherAll(t, flat, lists, batches)
	rows := int64(0)
	for _, l := range lists {
		rows += int64(len(l))
	}
	st := flat.Stats()
	if st.Gathers != 3 || st.Rows != rows || st.RowsMoved != rows {
		t.Fatalf("flat stats %+v, want %d rows over 3 gathers", st, rows)
	}
	if st.BytesMoved != rows*int64(ds.FeatDim)*2 {
		t.Fatalf("bytes moved %d, want %d", st.BytesMoved, rows*int64(ds.FeatDim)*2)
	}
	if st.BytesSaved != 0 || st.CacheLookups != 0 || st.RowsRemote != 0 {
		t.Fatalf("flat store charged cache/shard accounting: %+v", st)
	}
	flat.ResetStats()
	if flat.Stats() != (Stats{}) {
		t.Fatal("ResetStats left residue")
	}
}

func TestCachedMovesFewerBytesThanFlat(t *testing.T) {
	ds := testDS(t)
	lists, batches := sampleLists(t, ds, 6, 64)
	flat := NewFlat(ds)
	gatherAll(t, flat, lists, batches)
	cached, err := NewCached(NewFlat(ds), ds.G, CacheOptions{Rows: int(ds.G.N) / 4, Policy: cache.StaticDegree})
	if err != nil {
		t.Fatal(err)
	}
	gatherAll(t, cached, lists, batches)

	fs, cs := flat.Stats(), cached.Stats()
	if cs.BytesMoved >= fs.BytesMoved {
		t.Fatalf("cached moved %d bytes, flat %d: top-degree cache saved nothing", cs.BytesMoved, fs.BytesMoved)
	}
	if cs.BytesMoved+cs.BytesSaved != fs.BytesMoved {
		t.Fatalf("cached moved+saved %d != flat moved %d", cs.BytesMoved+cs.BytesSaved, fs.BytesMoved)
	}
	if cs.CacheLookups != cs.Rows || cs.CacheHits != cs.RowsSaved {
		t.Fatalf("cache counters inconsistent: %+v", cs)
	}
	if cs.HitRate() <= 0 {
		t.Fatalf("hit rate %v", cs.HitRate())
	}
}

// partLocalLists builds per-part seed batches (each batch's seeds all live
// on one part), the access pattern of a partition-aware consumer. Batches
// are kept small relative to the graph so sampled neighborhoods do not
// cover it — otherwise every placement looks equally (non-)local.
func partLocalLists(t testing.TB, ds *dataset.Dataset, a *partition.Assignment, batchSize int) ([][]int32, []int) {
	t.Helper()
	byPart := make([][]int32, a.Parts)
	for _, v := range ds.Train {
		p := a.Part[v]
		byPart[p] = append(byPart[p], v)
	}
	sm := sampler.New(ds.G, []int{5, 5}, sampler.FastConfig())
	var lists [][]int32
	var batches []int
	for p := range byPart {
		for b := 0; b+batchSize <= len(byPart[p]) && b < 4*batchSize; b += batchSize {
			seeds := byPart[p][b : b+batchSize]
			m := sm.Sample(rng.New(uint64(p*1000+b)*0xbf58476d1ce4e5b9+11), seeds).Clone()
			lists = append(lists, m.NodeIDs)
			batches = append(batches, len(seeds))
		}
	}
	if len(lists) == 0 {
		t.Fatal("no part-local batches")
	}
	return lists, batches
}

// TestLDGPlacementCutsCrossShardTraffic: on part-local batches, LDG
// placement must fetch measurably fewer remote rows than random placement —
// the sharded store's reason to exist.
func TestLDGPlacementCutsCrossShardTraffic(t *testing.T) {
	ds, err := dataset.Load(dataset.Arxiv, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	const parts = 4
	ldgA, err := partition.LDG(ds.G, parts)
	if err != nil {
		t.Fatal(err)
	}
	randA, err := partition.Random(ds.G, parts, 3)
	if err != nil {
		t.Fatal(err)
	}
	remoteFrac := func(a *partition.Assignment) float64 {
		st, err := NewSharded(ds, a, half.FP16)
		if err != nil {
			t.Fatal(err)
		}
		lists, batches := partLocalLists(t, ds, a, 8)
		gatherAll(t, st, lists, batches)
		return st.Stats().RemoteFrac()
	}
	ldgFrac, randFrac := remoteFrac(ldgA), remoteFrac(randA)
	if ldgFrac >= randFrac {
		t.Fatalf("LDG remote fraction %.3f not below random %.3f", ldgFrac, randFrac)
	}
	// Random placement strands ~(P-1)/P of rows off-part; LDG must beat it
	// by a clear relative margin, not by noise (same bar as the partition
	// package's own edge-cut test: hub-heavy power-law graphs cap how local
	// any placement can make two-hop neighborhoods).
	if ldgFrac >= randFrac*0.95 {
		t.Fatalf("LDG %.3f vs random %.3f: placement barely matters", ldgFrac, randFrac)
	}
}

func TestConcurrentGathersAreSafeAndAccounted(t *testing.T) {
	ds := testDS(t)
	lists, batches := sampleLists(t, ds, 8, 32)
	cached, err := NewCached(NewFlat(ds), ds.G, CacheOptions{Rows: int(ds.G.N) / 4, Policy: cache.VIP})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ids := range lists {
				buf := slicing.NewPinned(len(ids), cached.Dim(), batches[i])
				if err := cached.Gather(buf, ids, batches[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rows := int64(0)
	for _, l := range lists {
		rows += int64(len(l))
	}
	st := cached.Stats()
	if st.Rows != 4*rows {
		t.Fatalf("accounted %d rows, want %d", st.Rows, 4*rows)
	}
	if st.RowsMoved+st.RowsSaved != st.Rows {
		t.Fatalf("moved %d + saved %d != rows %d", st.RowsMoved, st.RowsSaved, st.Rows)
	}
}

func TestBuildSpecs(t *testing.T) {
	ds := testDS(t)
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{}, "*store.Flat"},
		{Spec{Kind: "flat"}, "*store.Flat"},
		{Spec{Kind: "sharded", Parts: 2}, "*store.Sharded"},
		{Spec{Kind: "sharded", Parts: 2, Placement: "random"}, "*store.Sharded"},
		{Spec{Kind: "cached"}, "*store.Cached"},
		{Spec{Kind: "cached", Parts: 2}, "*store.Cached"}, // parts ignored without sharding
		{Spec{Kind: "sharded+cached", Parts: 2, CachePolicy: cache.VIP}, "*store.Cached"},
	} {
		st, err := Build(ds, tc.spec)
		if err != nil {
			t.Fatalf("Build(%+v): %v", tc.spec, err)
		}
		var got string
		switch st.(type) {
		case *Flat:
			got = "*store.Flat"
		case *Sharded:
			got = "*store.Sharded"
		case *Cached:
			got = "*store.Cached"
		}
		if got != tc.want {
			t.Fatalf("Build(%+v) = %s, want %s", tc.spec, got, tc.want)
		}
	}
	if _, err := Build(ds, Spec{Kind: "bogus"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Build(ds, Spec{Kind: "sharded", Placement: "metis"}); err == nil {
		t.Fatal("unknown placement accepted")
	}
}

// TestCachedShardedComposition: the wrapped snapshot must carry both the
// cache view and the shard view.
func TestCachedShardedComposition(t *testing.T) {
	ds := testDS(t)
	a, err := partition.Random(ds.G, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(ds, a, half.FP16)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewCached(sharded, ds.G, CacheOptions{Rows: int(ds.G.N) / 4, Policy: cache.StaticDegree})
	if err != nil {
		t.Fatal(err)
	}
	lists, batches := sampleLists(t, ds, 4, 48)
	gatherAll(t, cached, lists, batches)
	st := cached.Stats()
	if st.RowsRemote == 0 {
		t.Fatal("random 4-way sharding reported zero remote rows through the cache wrapper")
	}
	if st.RowsSaved == 0 {
		t.Fatal("quarter-graph degree cache saved nothing")
	}
}
