package serve

import (
	"sync"
	"testing"
	"time"

	"salient/internal/graph"
	"salient/internal/mfg"
	"salient/internal/nn"
	"salient/internal/rng"
	"salient/internal/sampler"
)

// TestEmbReuseStalenessZeroBitIdentical is the oracle the tentpole rests
// on: a server with the embedding cache enabled but a zero staleness window
// absorbs embeddings yet never serves one, so every answer stays equal to
// one-shot infer.Sampled — repeated submissions included (a warm cache must
// not change anything at window 0).
func TestEmbReuseStalenessZeroBitIdentical(t *testing.T) {
	ds, tr := fitted(t)
	nodes := ds.Test[:40]
	want := singleShot(t, nodes)

	s, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 3, MaxBatch: 8, Seed: serveSeed,
		EmbCacheRows: 4096, EmbStaleness: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round := 0; round < 3; round++ {
		for _, v := range nodes {
			got, err := submit(s, v)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[v] {
				t.Fatalf("round %d node %d: label %d, want %d (staleness 0 must be bit-identical)", round, v, got, want[v])
			}
		}
	}
	st := s.Stats()
	if st.EmbLookups == 0 {
		t.Fatal("cache enabled but never consulted")
	}
	if st.EmbHits != 0 {
		t.Fatalf("staleness 0 served %d hits", st.EmbHits)
	}
	if s.emb.Len() == 0 {
		t.Fatal("window 0 must still absorb embeddings")
	}
}

// TestEmbReuseTruncatesAndPinsAccuracy turns reuse on (static graph: every
// version is 0, so window 1 covers everything) and pins both effects: the
// warm pass serves real hits, and the answers stay overwhelmingly in
// agreement with the exact one-shot oracle — reuse swaps one fanout-bounded
// sample of a frontier node's neighborhood for another, it does not corrupt
// the computation.
func TestEmbReuseTruncatesAndPinsAccuracy(t *testing.T) {
	ds, tr := fitted(t)
	nodes := ds.Test[:120]
	want := singleShot(t, nodes)

	s, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 2, MaxBatch: 8, Seed: serveSeed,
		EmbCacheRows: 1 << 15, EmbStaleness: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Warm pass populates the cache; measure pass should truncate.
	for _, v := range nodes {
		if _, err := submit(s, v); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetStats()
	agree := 0
	for _, v := range nodes {
		got, err := submit(s, v)
		if err != nil {
			t.Fatal(err)
		}
		if got == want[v] {
			agree++
		}
	}
	st := s.Stats()
	if st.EmbHits == 0 {
		t.Fatal("warm cache produced no truncations")
	}
	if frac := float64(agree) / float64(len(nodes)); frac < 0.9 {
		t.Fatalf("only %.0f%% of reused answers agree with the one-shot oracle", 100*frac)
	}
	t.Logf("emb hit rate %.2f, oracle agreement %d/%d", st.EmbHitRate(), agree, len(nodes))
}

// TestEmbReuseRequiresResumeModelAndDepth: option validation fails loudly.
func TestEmbReuseRequiresResumeModelAndDepth(t *testing.T) {
	ds, _ := fitted(t)
	m := nn.NewGraphSAGE(nn.ModelConfig{In: ds.FeatDim, Hidden: 8, Out: ds.NumClasses, Layers: 1, Seed: 1})
	if _, err := New(m, ds, Options{Fanouts: []int{10}, EmbCacheRows: 64}); err == nil {
		t.Fatal("1-layer embedding reuse accepted")
	}
}

// TestEmbReuseConcurrentWithInvalidation hammers a dynamic-graph server
// with concurrent submitters while churn bumps the graph version, so cached
// embeddings age out of the staleness window mid-traffic — the -race
// exercise for the serve/embcache/sampler seams. Answers only need to be
// valid labels; the point is that no interleaving of Lookup/Put with live
// truncating samplers races or deadlocks.
func TestEmbReuseConcurrentWithInvalidation(t *testing.T) {
	ds, tr := fitted(t)
	dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 3, MaxBatch: 8, Seed: serveSeed,
		QueueCapacity: 4096, Graph: dyn,
		EmbCacheRows: 2048, EmbStaleness: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var churners sync.WaitGroup
	churners.Add(1)
	go func() {
		defer churners.Done()
		r := rng.New(11)
		for {
			select {
			case <-stop:
				return
			default:
			}
			src := []int32{int32(r.Intn(int(ds.G.N)))}
			dst := []int32{int32(r.Intn(int(ds.G.N)))}
			if _, _, err := s.Update(src, dst); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var clients sync.WaitGroup
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			r := rng.New(uint64(c) + 1)
			for i := 0; i < 150; i++ {
				v := ds.Test[r.Intn(len(ds.Test))]
				got, err := submit(s, v)
				if err != nil {
					t.Errorf("Submit(%d): %v", v, err)
					return
				}
				if got < 0 || got >= int32(ds.NumClasses) {
					t.Errorf("Submit(%d) = invalid label %d", v, got)
					return
				}
			}
		}(c)
	}
	clients.Wait()
	close(stop)
	churners.Wait()
}

// TestMergedFrontierPosMapsEveryFrontierEntry: for 2 and 3 independently
// sampled requests merged with mfg.Merge, at 2 and 3 layers, every entry of
// every request's level-1 frontier maps to a distinct merged level-1 row
// that holds that request's node.
func TestMergedFrontierPosMapsEveryFrontierEntry(t *testing.T) {
	ds, _ := fitted(t)
	for _, fanouts := range [][]int{{10, 5}, {4, 3, 2}} {
		for nreq := 2; nreq <= 3; nreq++ {
			sm := sampler.New(graph.Static(ds.G).View(), fanouts, sampler.FastConfig())
			slots := make([]mfg.MFG, nreq)
			ptrs := make([]*mfg.MFG, nreq)
			for i := range slots {
				if err := sm.SampleInto(rng.New(uint64(i+1)), []int32{ds.Test[i]}, &slots[i]); err != nil {
					t.Fatal(err)
				}
				ptrs[i] = &slots[i]
			}
			merged := mfg.Merge(ptrs)
			seen := make(map[int]bool)
			for req := range slots {
				for loc := 0; loc < int(slots[req].Blocks[0].NumDst); loc++ {
					p := mergedFrontierPos(slots, req, loc)
					if p < 0 || p >= int(merged.Blocks[0].NumDst) || seen[p] {
						t.Fatalf("layers %d, %d requests: request %d frontier %d -> row %d, out of the level-1 frontier or already taken",
							len(fanouts), nreq, req, loc, p)
					}
					seen[p] = true
					if got, want := merged.NodeIDs[p], slots[req].NodeIDs[loc]; got != want {
						t.Fatalf("layers %d, %d requests: request %d frontier %d -> row %d holds node %d, want %d",
							len(fanouts), nreq, req, loc, p, got, want)
					}
				}
			}
			if len(seen) != int(merged.Blocks[0].NumDst) {
				t.Fatalf("layers %d, %d requests: mapped %d rows, merged frontier has %d",
					len(fanouts), nreq, len(seen), merged.Blocks[0].NumDst)
			}
		}
	}
}
