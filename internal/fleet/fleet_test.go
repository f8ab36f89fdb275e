package fleet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/infer"
	"salient/internal/nn"
	"salient/internal/serve"
	"salient/internal/store"
	"salient/internal/train"
)

// A Fleet must drive through the same load generators a bare server does.
var _ serve.Submitter = (*Fleet)(nil)

// fitted trains a small model once per test binary, exactly as the serve
// tests do, so fleet answers can be checked against the same single-shot
// oracle.
var fittedOnce struct {
	sync.Once
	ds  *dataset.Dataset
	tr  *train.Trainer
	err error
}

func fitted(t testing.TB) (*dataset.Dataset, *train.Trainer) {
	t.Helper()
	fittedOnce.Do(func() {
		ds, err := dataset.Load(dataset.Arxiv, 0.05)
		if err != nil {
			fittedOnce.err = err
			return
		}
		tr, err := train.New(ds, train.Config{
			Arch: "SAGE", Hidden: 32, Layers: 2, Fanouts: []int{10, 5},
			BatchSize: 128, LR: 5e-3, Workers: 2, Seed: 3,
		})
		if err != nil {
			fittedOnce.err = err
			return
		}
		if _, err := tr.Fit(2); err != nil {
			fittedOnce.err = err
			return
		}
		fittedOnce.ds, fittedOnce.tr = ds, tr
	})
	if fittedOnce.err != nil {
		t.Fatal(fittedOnce.err)
	}
	return fittedOnce.ds, fittedOnce.tr
}

const fleetSeed = 7

var fleetFanouts = []int{10, 5}

// cloneModels replicates the fitted model n times via Replicate.
func cloneModels(t testing.TB, n int) []nn.Model {
	t.Helper()
	ds, tr := fitted(t)
	models, err := Replicate(tr.Model, n, func() (nn.Model, error) {
		return train.NewModel("SAGE", nn.ModelConfig{
			In: ds.FeatDim, Hidden: 32, Out: ds.NumClasses, Layers: 2, Seed: 3,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return models
}

// singleShot computes the per-node ground truth: one-shot infer.Sampled
// with the fleet's seed and fanouts.
func singleShot(t testing.TB, nodes []int32) map[int32]int32 {
	t.Helper()
	ds, tr := fitted(t)
	want := make(map[int32]int32, len(nodes))
	for _, v := range nodes {
		if _, ok := want[v]; ok {
			continue
		}
		pred, err := infer.Sampled(tr.Model, ds, []int32{v}, infer.Options{
			Fanouts: fleetFanouts, BatchSize: 1, Workers: 1, Seed: fleetSeed,
		})
		if err != nil {
			t.Fatalf("infer.Sampled(%d): %v", v, err)
		}
		want[v] = pred[0]
	}
	return want
}

// freshEdges finds k directed edges absent from the dataset's graph (one
// per source node, so the pairs are distinct) — updates that are
// guaranteed to apply and therefore to advance the graph version.
func freshEdges(t testing.TB, k int) (src, dst []int32) {
	ds, _ := fitted(t)
	n := ds.G.N
	for u := int32(0); u < n && len(src) < k; u++ {
		nb := map[int32]bool{}
		for _, w := range ds.G.Neighbors(u) {
			nb[w] = true
		}
		for w := n - 1; w >= 0; w-- {
			if w != u && !nb[w] {
				src = append(src, u)
				dst = append(dst, w)
				break
			}
		}
	}
	if len(src) < k {
		t.Fatalf("found only %d fresh edges, need %d", len(src), k)
	}
	return src, dst
}

func serveTemplate() serve.Options {
	return serve.Options{
		Fanouts: fleetFanouts, Workers: 2, MaxBatch: 8, Seed: fleetSeed,
	}
}

// TestFleetOfOneBitIdentical is the acceptance anchor: a fleet of one
// replica (built from a state-copied clone of the trained model) answers
// every request — label AND version — exactly as the bare server over the
// original model does.
func TestFleetOfOneBitIdentical(t *testing.T) {
	ds, tr := fitted(t)
	nodes := ds.Test[:40]

	bare, err := serve.New(tr.Model, ds, serveTemplate())
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()

	f, err := New(ds, Options{Replicas: 1, Serve: serveTemplate()}, cloneModels(t, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for _, v := range nodes {
		bp, err := bare.Predict(v)
		if err != nil {
			t.Fatalf("bare Predict(%d): %v", v, err)
		}
		fp, err := f.Predict(v)
		if err != nil {
			t.Fatalf("fleet Predict(%d): %v", v, err)
		}
		if bp != fp {
			t.Fatalf("Predict(%d): fleet %+v, bare server %+v", v, fp, bp)
		}
	}
}

// TestFleetMultiReplicaMatchesOracle pins correctness under replication:
// whatever replica hash routing picks, the answer equals the single-shot
// oracle, and the key space actually spreads over the fleet.
func TestFleetMultiReplicaMatchesOracle(t *testing.T) {
	ds, _ := fitted(t)
	nodes := ds.Test[:60]
	want := singleShot(t, nodes)

	f, err := New(ds, Options{Replicas: 3, Serve: serveTemplate()}, cloneModels(t, 3)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for _, v := range nodes {
		got, err := f.Submit(v)
		if err != nil {
			t.Fatalf("Submit(%d): %v", v, err)
		}
		if got != want[v] {
			t.Fatalf("Submit(%d) = %d, want %d (single-shot oracle)", v, got, want[v])
		}
	}
	st := f.Stats()
	busy := 0
	for _, c := range st.Routed {
		if c > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("hash routing sent all %d keys to one replica: routed %v", len(nodes), st.Routed)
	}

	// Satellite: the aggregate stats are exact sums of the per-replica
	// snapshots taken in the same call.
	var sub, rej, served, batches, deadlined int64
	for _, rs := range st.PerReplica {
		sub += rs.Submitted
		rej += rs.Rejected
		served += rs.Served
		batches += rs.Batches
		deadlined += rs.DeadlineSheds
	}
	if st.Submitted != sub || st.Rejected != rej || st.Served != served ||
		st.Batches != batches || st.DeadlineSheds != deadlined {
		t.Fatalf("aggregate %+v does not sum per-replica (want sub=%d rej=%d served=%d batches=%d dl=%d)",
			st, sub, rej, served, batches, deadlined)
	}
	if st.Served != int64(len(nodes)) {
		t.Fatalf("Served = %d, want %d", st.Served, len(nodes))
	}
	if int64(st.Latency.Count) != int64(len(nodes)) {
		t.Fatalf("fleet latency count = %d, want %d", st.Latency.Count, len(nodes))
	}

	// Hash affinity is deterministic: the same node routes to the same
	// replica every time (no load bound configured).
	home := f.route(nodes[0], 0)
	for i := 0; i < 5; i++ {
		if got := f.route(nodes[0], 0); got != home {
			t.Fatalf("route(%d) flapped %d -> %d", nodes[0], home, got)
		}
	}
}

// TestFleetDeadlineShedsInfeasible: once a replica has a live service-time
// estimate, a request whose deadline is provably inside it is refused at
// admission — with the reason, the replica, and both numbers attached.
func TestFleetDeadlineShedsInfeasible(t *testing.T) {
	ds, _ := fitted(t)
	f, err := New(ds, Options{Replicas: 1, Serve: serveTemplate()}, cloneModels(t, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Warm the estimate: real forwards take far longer than a nanosecond.
	for _, v := range ds.Test[:8] {
		if _, err := f.Submit(v); err != nil {
			t.Fatal(err)
		}
	}
	if est := f.Replica(0).EstimateServiceTime(); est <= 0 {
		t.Fatalf("no service-time estimate after traffic: %v", est)
	}

	_, err = f.PredictReq(serve.Request{Node: ds.Test[0], Deadline: time.Now().Add(time.Nanosecond)})
	if !errors.Is(err, ErrShedDeadline) {
		t.Fatalf("infeasible deadline returned %v, want ErrShedDeadline", err)
	}
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ShedDeadline || se.Estimate <= 0 {
		t.Fatalf("shed context missing: %+v", se)
	}
	st := f.Stats()
	if st.ShedDeadlines != 1 || st.TotalSheds() != 1 {
		t.Fatalf("ShedDeadlines = %d, TotalSheds = %d; want 1, 1", st.ShedDeadlines, st.TotalSheds())
	}
	// The shed never reached the replica.
	if st.Submitted != 8 {
		t.Fatalf("replica Submitted = %d, want 8 (shed request must not enqueue)", st.Submitted)
	}
}

func TestAdmitPriority(t *testing.T) {
	const qcap = 64
	for _, levels := range []int{2, 3, 4} {
		// The top priority is always admitted.
		if !admitPriority(qcap-1, qcap, levels, levels-1) {
			t.Fatalf("levels=%d: top priority shed below capacity", levels)
		}
		if !admitPriority(qcap*2, qcap, levels, levels+5) {
			t.Fatalf("levels=%d: out-of-range priority not clamped to top", levels)
		}
		// Priority 0 sheds at exactly ceil(qcap/levels) occupancy.
		edge := (qcap + levels - 1) / levels
		if !admitPriority(edge-1, qcap, levels, 0) {
			t.Fatalf("levels=%d: priority 0 shed below its threshold", levels)
		}
		if admitPriority(edge, qcap, levels, 0) {
			t.Fatalf("levels=%d: priority 0 admitted at its threshold", levels)
		}
		// Monotone: if priority p is admitted at depth d, so is p+1.
		for d := 0; d <= qcap; d++ {
			prev := false
			for p := levels - 1; p >= 0; p-- {
				cur := admitPriority(d, qcap, levels, p)
				if p < levels-1 && cur && !prev {
					t.Fatalf("levels=%d depth=%d: priority %d admitted but %d shed", levels, d, p, p+1)
				}
				prev = cur
			}
		}
	}
}

// TestFleetPriorityShedsLowFirst floods a deliberately tiny single-worker
// replica with low-priority traffic and interleaves high-priority
// requests: low priority must shed (ShedPriority), high priority must
// NEVER shed on priority — only capacity can refuse it.
func TestFleetPriorityShedsLowFirst(t *testing.T) {
	ds, _ := fitted(t)
	tmpl := serveTemplate()
	tmpl.Workers = 1
	tmpl.MaxBatch = 2
	tmpl.QueueCapacity = 4
	f, err := New(ds, Options{Replicas: 1, Serve: tmpl, PriorityLevels: 2}, cloneModels(t, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	nodes := ds.Test[:64]
	var wg sync.WaitGroup
	var lowSheds, highPriSheds int64
	var mu sync.Mutex
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				pri := uint8(0)
				if c%4 == 0 {
					pri = 1
				}
				_, err := f.PredictReq(serve.Request{Node: nodes[(c*20+i)%len(nodes)], Priority: pri})
				if errors.Is(err, ErrShedPriority) {
					mu.Lock()
					if pri == 1 {
						highPriSheds++
					} else {
						lowSheds++
					}
					mu.Unlock()
				} else if err != nil && !errors.Is(err, ErrShedCapacity) {
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(c)
	}
	wg.Wait()
	if highPriSheds != 0 {
		t.Fatalf("high-priority requests shed on priority %d times", highPriSheds)
	}
	if lowSheds == 0 {
		t.Skip("queue never deepened past the low-priority threshold on this machine")
	}
	if st := f.Stats(); st.ShedPriorities != lowSheds {
		t.Fatalf("ShedPriorities = %d, observed %d", st.ShedPriorities, lowSheds)
	}
}

// TestFleetSkewBoundedRouting pins the watermark machinery: a replica
// lagging more than MaxSkew behind the fleet's max version stops
// receiving traffic until it catches up.
func TestFleetSkewBoundedRouting(t *testing.T) {
	ds, _ := fitted(t)
	f, err := New(ds, Options{
		Replicas: 3, Serve: serveTemplate(), Dynamic: true, MaxSkew: 1,
	}, cloneModels(t, 3)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Advance replica 0 three versions past its peers, bypassing the fleet
	// (the operational analogue: a partial fan-out failure).
	esrc, edst := freshEdges(t, 3)
	for i := range esrc {
		if _, _, err := f.Replica(0).Update(esrc[i:i+1], edst[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	f.RefreshVersions()

	nodes := ds.Test[:30]
	for _, v := range nodes {
		p, err := f.Predict(v)
		if err != nil {
			t.Fatalf("Predict(%d) during skew: %v", v, err)
		}
		if p.Version != 3 {
			t.Fatalf("Predict(%d) answered at version %d; laggards (v0) should be skipped (MaxSkew 1, watermark 3)", v, p.Version)
		}
	}
	st := f.Stats()
	if st.Routed[1] != 0 || st.Routed[2] != 0 {
		t.Fatalf("lagging replicas served traffic: routed %v", st.Routed)
	}
	if st.Skew() != 3 || st.MaxVersion != 3 || st.MinVersion != 0 {
		t.Fatalf("watermarks: %+v", st)
	}

	// Catch the laggards up; routing spreads again.
	for _, rep := range []int{1, 2} {
		for i := range esrc {
			if _, _, err := f.Replica(rep).Update(esrc[i:i+1], edst[i:i+1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.RefreshVersions()
	f.ResetStats()
	for _, v := range ds.Test[:60] {
		if _, err := f.Predict(v); err != nil {
			t.Fatal(err)
		}
	}
	busy := 0
	for _, c := range f.Stats().Routed {
		if c > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("routing still pinned after laggards caught up: %v", f.Stats().Routed)
	}
}

// TestFleetHashRoutingBeatsRandomOnCacheHits pins what affinity routing
// buys: at one total cache budget split over two replicas, hash routing
// sends each node's traffic to one replica, so that replica's VIP feature
// cache and embedding cache hold its own slice of the Zipf hot set, while
// random routing leaves every replica caching a diluted copy of the whole
// distribution.
func TestFleetHashRoutingBeatsRandomOnCacheHits(t *testing.T) {
	ds, _ := fitted(t)
	const replicas = 2
	n := int(ds.G.N)
	// Shared permSeed: warm-up and measurement target the same hot set.
	warm := serve.ZipfNodes(ds.G.N, 1.1, 101, 7, 1500)
	meas := serve.ZipfNodes(ds.G.N, 1.1, 101, 8, 1500)
	combinedHitRate := func(routing Routing) float64 {
		tmpl := serveTemplate()
		tmpl.CacheRows = n / 5 / replicas
		tmpl.CachePolicy = cache.VIP
		tmpl.EmbCacheRows = n * 3 / 10 / replicas
		tmpl.EmbStaleness = 1
		f, err := New(ds, Options{Replicas: replicas, Serve: tmpl, Routing: routing, Seed: fleetSeed},
			cloneModels(t, replicas)...)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		serve.DriveClosedLoop(f, warm, 1, len(warm))
		// Each replica places its VIP cache from the traffic routed to it.
		for i := 0; i < replicas; i++ {
			c, ok := f.Replica(i).FeatureStore().(*store.Cached)
			if !ok {
				t.Fatalf("replica %d store is %T, want *store.Cached", i, f.Replica(i).FeatureStore())
			}
			c.Refresh(ds.G)
		}
		f.ResetStats()
		serve.DriveClosedLoop(f, meas, 1, len(meas))
		return f.Stats().CombinedCacheHitRate()
	}
	hash, random := combinedHitRate(RouteHash), combinedHitRate(RouteRandom)
	t.Logf("combined cache hit rate: hash %.3f, random %.3f", hash, random)
	if hash <= random {
		t.Fatalf("hash routing combined hit rate %.3f not above random routing's %.3f", hash, random)
	}
}

// TestFleetResultCache pins the versioned memo: a repeated request is
// answered from the cache (the replica sees it once), and a graph update
// invalidates the memo so the next request recomputes at the new version.
func TestFleetResultCache(t *testing.T) {
	ds, _ := fitted(t)
	f, err := New(ds, Options{
		Replicas: 1, Serve: serveTemplate(), Dynamic: true, ResultRows: 64,
	}, cloneModels(t, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	v := ds.Test[0]
	first, err := f.Predict(v)
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.Predict(v)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("memoized answer %+v differs from computed %+v", second, first)
	}
	st := f.Stats()
	if st.Submitted != 1 {
		t.Fatalf("replica Submitted = %d, want 1 (second request must hit the result cache)", st.Submitted)
	}
	if st.Result.Hits != 1 || st.Result.Lookups != 2 {
		t.Fatalf("result cache stats %+v, want 1 hit of 2 lookups", st.Result)
	}

	// A graph update advances the watermark: the memo can no longer answer.
	usrc, udst := freshEdges(t, 1)
	if _, ver, err := f.Update(usrc, udst); err != nil || ver != 1 {
		t.Fatalf("Update: ver=%d err=%v", ver, err)
	}
	third, err := f.Predict(v)
	if err != nil {
		t.Fatal(err)
	}
	if third.Version != 1 {
		t.Fatalf("post-update answer at version %d, want 1", third.Version)
	}
	if st := f.Stats(); st.Submitted != 2 {
		t.Fatalf("replica Submitted = %d after invalidation, want 2", st.Submitted)
	}
}

// TestFleetUpdateFanOut pins write-path replication: one Update advances
// every replica identically, and AddNode assigns the same ID fleet-wide.
func TestFleetUpdateFanOut(t *testing.T) {
	ds, _ := fitted(t)
	f, err := New(ds, Options{Replicas: 2, Serve: serveTemplate(), Dynamic: true},
		cloneModels(t, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	usrc, udst := freshEdges(t, 2)
	_, ver, err := f.Update(usrc, udst)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 {
		t.Fatalf("fan-out version = %d, want 1", ver)
	}
	st := f.Stats()
	for i, v := range st.Versions {
		if v != 1 {
			t.Fatalf("replica %d watermark %d after fan-out, want 1 (%v)", i, v, st.Versions)
		}
	}

	feat := make([]float32, ds.FeatDim)
	id, ver, err := f.AddNode(feat, 0, []int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if id != int32(ds.G.N) {
		t.Fatalf("AddNode id = %d, want %d", id, ds.G.N)
	}
	// AddNode is two graph mutations (grow, then wire the neighbors), so
	// the version advances twice past the update's 1.
	if ver != 3 {
		t.Fatalf("AddNode version = %d, want 3", ver)
	}
	// The new node is immediately predictable through the router.
	if _, err := f.Submit(id); err != nil {
		t.Fatalf("Submit(new node %d): %v", id, err)
	}
}

// TestFleetConcurrentServeAndUpdate exercises the full concurrency matrix
// under -race: readers through the router, update fan-outs, AddNode
// growth, and watermark refreshes, all at once.
func TestFleetConcurrentServeAndUpdate(t *testing.T) {
	ds, _ := fitted(t)
	tmpl := serveTemplate()
	tmpl.QueueCapacity = 4096
	f, err := New(ds, Options{
		Replicas: 2, Serve: tmpl, Dynamic: true, MaxSkew: 4, ResultRows: 32,
	}, cloneModels(t, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	nodes := ds.Test[:32]
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := f.Submit(nodes[(c*25+i)%len(nodes)]); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int32(0); i < 10; i++ {
			if _, _, err := f.Update([]int32{i}, []int32{i + 100}); err != nil {
				t.Errorf("Update: %v", err)
				return
			}
			f.RefreshVersions()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		feat := make([]float32, ds.FeatDim)
		for i := 0; i < 3; i++ {
			if _, _, err := f.AddNode(feat, 0, []int32{0}); err != nil {
				t.Errorf("AddNode: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	st := f.Stats()
	if st.Versions[0] != st.Versions[1] {
		t.Fatalf("replica versions diverged after quiesce: %v", st.Versions)
	}
	if n0, n1 := f.Replica(0).FeatureStore().NumNodes(), f.Replica(1).FeatureStore().NumNodes(); n0 != n1 {
		t.Fatalf("replica stores diverged: %d vs %d rows", n0, n1)
	}
}

// TestFleetOptionsValidation pins the construction guards.
func TestFleetOptionsValidation(t *testing.T) {
	ds, tr := fitted(t)
	if _, err := New(ds, Options{Replicas: 2, Serve: serveTemplate()}, tr.Model); err == nil {
		t.Fatal("model count mismatch accepted")
	}
	if _, err := New(ds, Options{Replicas: 2, Serve: serveTemplate()}, tr.Model, tr.Model); err == nil {
		t.Fatal("shared model accepted")
	}
	bad := serveTemplate()
	bad.Store = store.NewFlat(ds)
	if _, err := New(ds, Options{Replicas: 2, Serve: bad}, cloneModels(t, 2)...); err == nil {
		t.Fatal("shared store accepted (replicas must own their stores)")
	}
}
