package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"salient/internal/cache"
	"salient/internal/graph"
	"salient/internal/rng"
	"salient/internal/slicing"
	"salient/internal/store"
)

// TestDynamicZeroDeltaMatchesStatic is the serving half of the tentpole
// bit-identity oracle: a server over a Dynamic graph with zero applied
// updates answers every request exactly as the static server (and therefore
// as one-shot infer.Sampled), and every response reports version 0.
func TestDynamicZeroDeltaMatchesStatic(t *testing.T) {
	ds, tr := fitted(t)
	nodes := ds.Test[:40]
	want := singleShot(t, nodes)

	dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 2, MaxBatch: 8, Seed: serveSeed, Graph: dyn,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, v := range nodes {
		p, err := srv.PredictReq(Request{Node: v})
		if err != nil {
			t.Fatal(err)
		}
		if p.Label != want[v] {
			t.Fatalf("node %d: dynamic zero-delta label %d, static/one-shot %d", v, p.Label, want[v])
		}
		if p.Version != 0 {
			t.Fatalf("node %d: zero-delta response carries version %d, want 0", v, p.Version)
		}
	}
	if st := srv.Stats(); st.GraphVersion != 0 || st.Compactions != 0 {
		t.Fatalf("zero-delta stats report version %d / %d compactions", st.GraphVersion, st.Compactions)
	}
}

// TestUpdateAPIsRequireDynamicGraph: the update surface fails loudly on a
// static server.
func TestUpdateAPIsRequireDynamicGraph(t *testing.T) {
	ds, tr := fitted(t)
	srv, err := New(tr.Model, ds, Options{Fanouts: serveFanouts, Seed: serveSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, _, err := srv.Update([]int32{0}, []int32{1}); !errors.Is(err, ErrStaticGraph) {
		t.Fatalf("Update on static server: %v, want ErrStaticGraph", err)
	}
	row := make([]float32, ds.FeatDim)
	if _, _, err := srv.AddNode(row, 0, nil); !errors.Is(err, ErrStaticGraph) {
		t.Fatalf("AddNode on static server: %v, want ErrStaticGraph", err)
	}
}

// TestAddNodeEndToEnd grows the graph through the server — feature row
// appended through the store, node added, undirected edges attached — and
// requires the new node to be immediately predictable, with the response
// version reflecting the insertion.
func TestAddNodeEndToEnd(t *testing.T) {
	ds, tr := fitted(t)
	dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 2, MaxBatch: 8, Seed: serveSeed, Graph: dyn,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Before growth: the future node ID is out of range.
	if _, err := srv.PredictReq(Request{Node: int32(ds.G.N)}); err == nil {
		t.Fatal("unknown node accepted before AddNode")
	}
	row := make([]float32, ds.FeatDim)
	copy(row, ds.Feat.Row(0)) // plausible features: clone node 0's
	id, ver, err := srv.AddNode(row, ds.Labels[0], []int32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if id != int32(ds.G.N) {
		t.Fatalf("new node ID %d, want %d", id, ds.G.N)
	}
	if ver == 0 {
		t.Fatal("AddNode did not advance the graph version")
	}
	p, err := srv.PredictReq(Request{Node: id})
	if err != nil {
		t.Fatalf("predicting the new node: %v", err)
	}
	if p.Version < ver {
		t.Fatalf("response version %d predates the insertion (%d)", p.Version, ver)
	}
	// Rows the dataset already had keep their labels/features (the append
	// copied on grow, never mutating ds).
	if int32(len(ds.Labels)) != ds.G.N {
		t.Fatalf("dataset labels grew to %d", len(ds.Labels))
	}
}

// TestConcurrentUpdatesAndServing is the acceptance -race test: writers
// stream edge updates (and node additions) into the dynamic graph while
// clients hammer Predict. Every response must carry a label and a snapshot
// version that was current at some point during the request's lifetime —
// monotone per worker pin, never exceeding the version Update reported most
// recently before the answer.
func TestConcurrentUpdatesAndServing(t *testing.T) {
	ds, tr := fitted(t)
	dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{CompactThreshold: 2048})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 3, MaxBatch: 8, Seed: serveSeed,
		Graph: dyn, CacheRows: int(ds.G.N) / 10, CachePolicy: cache.StaticDegree,
	})
	if err != nil {
		t.Fatal(err)
	}

	var maxPublished atomic.Uint64 // highest version any Update has returned
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			r := rng.New(uint64(100 + w))
			row := make([]float32, ds.FeatDim)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := make([]int32, 4)
				dst := make([]int32, 4)
				for j := range src {
					src[j] = int32(r.Intn(int(ds.G.N)))
					dst[j] = int32(r.Intn(int(ds.G.N)))
				}
				_, v, err := srv.Update(src, dst)
				if err != nil {
					t.Error(err)
					return
				}
				for {
					cur := maxPublished.Load()
					if v <= cur || maxPublished.CompareAndSwap(cur, v) {
						break
					}
				}
				if w == 0 && i%8 == 0 {
					if _, nv, err := srv.AddNode(row, 0, []int32{int32(r.Intn(int(ds.G.N)))}); err != nil {
						t.Error(err)
						return
					} else if nv > 0 {
						for {
							cur := maxPublished.Load()
							if nv <= cur || maxPublished.CompareAndSwap(cur, nv) {
								break
							}
						}
					}
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	var clients sync.WaitGroup
	const perClient = 60
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			r := rng.New(uint64(c + 1))
			for i := 0; i < perClient; i++ {
				node := ds.Test[r.Intn(len(ds.Test))]
				p, err := srv.PredictReq(Request{Node: node})
				if errors.Is(err, ErrSaturated) {
					i--
					continue
				}
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				// Validity: the served version can never run ahead of the
				// newest version the graph has actually published.
				if hi := dyn.Version(); p.Version > hi {
					t.Errorf("response version %d ahead of graph version %d", p.Version, hi)
					return
				}
			}
		}(c)
	}
	clients.Wait()
	close(stop)
	writers.Wait()
	srv.Close()

	st := srv.Stats()
	if st.Served < 4*perClient {
		t.Fatalf("served %d, want ≥ %d", st.Served, 4*perClient)
	}
	if st.GraphVersion == 0 || st.GraphVersion < maxPublished.Load() {
		t.Fatalf("final stats version %d, published up to %d", st.GraphVersion, maxPublished.Load())
	}
	if maxPublished.Load() == 0 {
		t.Fatal("writers never advanced the graph")
	}
}

// TestUpdatedTopologyChangesSampling: after enough churn around a node, a
// fresh prediction for it may differ from the pre-churn answer — but
// deterministically: two servers over identically updated graphs agree.
func TestUpdatedTopologyChangesSampling(t *testing.T) {
	ds, tr := fitted(t)
	mk := func() *Server {
		dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(tr.Model, ds, Options{
			Fanouts: serveFanouts, Workers: 1, MaxBatch: 1,
			Seed: serveSeed, Graph: dyn,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	a, b := mk(), mk()
	defer a.Close()
	defer b.Close()
	node := ds.Test[0]
	// Same deterministic churn on both graphs: rewire node's neighborhood.
	r := rng.New(42)
	src := make([]int32, 200)
	dst := make([]int32, 200)
	for i := range src {
		src[i] = node
		dst[i] = int32(r.Intn(int(ds.G.N)))
	}
	na, va, err := a.Update(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	nb, vb, err := b.Update(src, dst)
	if err != nil || va != vb || na != nb {
		t.Fatalf("updates diverge: applied %d/%d, versions %d/%d (%v)", na, nb, va, vb, err)
	}
	pa, err := a.PredictReq(Request{Node: node})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.PredictReq(Request{Node: node})
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Fatalf("identically churned servers disagree: %+v vs %+v", pa, pb)
	}
	if pa.Version != va {
		t.Fatalf("prediction pinned version %d, graph at %d", pa.Version, va)
	}
}

// TestCacheRefreshRateLimited pins the placement-refresh limiter: the
// first versioned snapshot a worker adopts replans the VIP placement, a
// snapshot fewer than cacheRefreshEvery versions later does not, and one
// that many versions later does — so a hot update stream cannot turn
// every snapshot adoption into a full replacement scan.
func TestCacheRefreshRateLimited(t *testing.T) {
	ds, tr := fitted(t)
	dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 1, Seed: serveSeed, Graph: dyn,
		CacheRows: 1, CachePolicy: cache.VIP,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := srv.FeatureStore().(*store.Cached)
	buf := slicing.NewPinned(1, c.Dim(), 1)
	touch := func(v int32, times int) {
		for i := 0; i < times; i++ {
			if err := c.Gather(buf, []int32{v}, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	next := int32(0)
	bump := func(k int) { // advance the graph k versions by fresh edge inserts
		for want := dyn.Version() + uint64(k); dyn.Version() < want; {
			next++
			if _, _, err := srv.Update([]int32{0}, []int32{next}); err != nil {
				t.Fatal(err)
			}
		}
	}

	touch(3, 8)
	bump(1)
	srv.refreshCache(dyn.View())
	if !c.Cache().Resident(3) {
		t.Fatal("hot node 3 not resident after the first refresh")
	}

	touch(5, 20)                // traffic shifts
	bump(cacheRefreshEvery - 1) // one version short of the window
	srv.refreshCache(dyn.View())
	if c.Cache().Resident(5) {
		t.Fatal("placement replanned inside the rate-limit window")
	}

	bump(1) // exactly cacheRefreshEvery past the last refresh
	srv.refreshCache(dyn.View())
	if !c.Cache().Resident(5) {
		t.Fatal("placement not replanned after the rate-limit window passed")
	}
}

// assertGoroutinesSettle fails unless the goroutine count returns to base
// within 2 s: whatever a closed server started has exited.
func assertGoroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after Close, %d before New:\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseLeavesNoGoroutines: a server with three workers and embedding
// reuse, serving while a writer streams updates into its dynamic graph,
// stops every goroutine it started by the time Close returns.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	ds, tr := fitted(t)
	base := runtime.NumGoroutine()
	dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 3, MaxBatch: 8, Seed: serveSeed, Graph: dyn,
		EmbCacheRows: 1024, EmbStaleness: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		r := rng.New(7)
		for i := 0; i < 50; i++ {
			src := []int32{int32(r.Intn(int(ds.G.N)))}
			dst := []int32{int32(r.Intn(int(ds.G.N)))}
			if _, _, err := srv.Update(src, dst); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, v := range ds.Test[:60] {
			if _, err := submit(srv, v); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if st := srv.Stats(); st.EmbLookups == 0 || st.GraphVersion == 0 {
		t.Fatalf("run exercised neither reuse nor updates: %+v", st)
	}
	srv.Close()
	assertGoroutinesSettle(t, base)
}
