package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/graph"
	"salient/internal/half"
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

// sharedModel returns the fitted model once per replica: every replica
// serves the same model.
func sharedModel(t testing.TB, n int) []nn.Model {
	t.Helper()
	_, tr := fitted(t)
	models := make([]nn.Model, n)
	for i := range models {
		models[i] = tr.Model
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

// submit asks s for node's label through its one entry point.
func submit(s serve.Submitter, node int32) (int32, error) {
	p, err := s.PredictReq(serve.Request{Node: node})
	return p.Label, err
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

	f, err := New(ds, Options{Replicas: 1, Serve: serveTemplate()}, sharedModel(t, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for _, v := range nodes {
		bp, err := bare.PredictReq(serve.Request{Node: v})
		if err != nil {
			t.Fatalf("bare Predict(%d): %v", v, err)
		}
		fp, err := f.PredictReq(serve.Request{Node: v})
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

	f, err := New(ds, Options{Replicas: 3, Serve: serveTemplate()}, sharedModel(t, 3)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for _, v := range nodes {
		got, err := submit(f, v)
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
	home := f.route(nodes[0])
	for i := 0; i < 5; i++ {
		if got := f.route(nodes[0]); got != home {
			t.Fatalf("route(%d) flapped %d -> %d", nodes[0], home, got)
		}
	}
}

// TestFleetDeadlineShedsInfeasible: once a replica has a live service-time
// estimate, a request whose deadline is provably inside it is refused at
// admission — with the reason, the replica, and both numbers attached.
func TestFleetDeadlineShedsInfeasible(t *testing.T) {
	ds, _ := fitted(t)
	f, err := New(ds, Options{Replicas: 1, Serve: serveTemplate()}, sharedModel(t, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Warm the estimate: real forwards take far longer than a nanosecond.
	for _, v := range ds.Test[:8] {
		if _, err := submit(f, v); err != nil {
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
	f, err := New(ds, Options{Replicas: 1, Serve: tmpl, PriorityLevels: 2}, sharedModel(t, 1)...)
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
			sharedModel(t, replicas)...)
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
// answered from the memo (the replica sees it once), and after a graph
// update the next request finds the old-version answer stale and
// recomputes at the new version.
func TestFleetResultCache(t *testing.T) {
	ds, _ := fitted(t)
	f, err := New(ds, Options{
		Replicas: 1, Serve: serveTemplate(), Dynamic: true, ResultRows: 64,
	}, sharedModel(t, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	v := ds.Test[0]
	first, err := f.PredictReq(serve.Request{Node: v})
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.PredictReq(serve.Request{Node: v})
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

	// A graph update advances the version: the memo can no longer answer.
	usrc, udst := freshEdges(t, 1)
	if _, ver, err := f.Update(usrc, udst); err != nil || ver != 1 {
		t.Fatalf("Update: ver=%d err=%v", ver, err)
	}
	third, err := f.PredictReq(serve.Request{Node: v})
	if err != nil {
		t.Fatal(err)
	}
	if third.Version != 1 {
		t.Fatalf("post-update answer at version %d, want 1", third.Version)
	}
	if st := f.Stats(); st.Submitted != 2 || st.Result.Stale != 1 {
		t.Fatalf("replica Submitted = %d, memo stale %d after Update, want 2 and 1",
			st.Submitted, st.Result.Stale)
	}

	// AddNode is a write too: the version-1 answer is stale, and the next
	// read is recomputed at the new version.
	_, ver, err := f.AddNode(make([]float32, ds.FeatDim), 0, []int32{v})
	if err != nil {
		t.Fatal(err)
	}
	fourth, err := f.PredictReq(serve.Request{Node: v})
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Version != ver {
		t.Fatalf("post-AddNode answer at version %d, want %d", fourth.Version, ver)
	}
	if st := f.Stats(); st.Submitted != 3 || st.Result.Stale != 2 {
		t.Fatalf("replica Submitted = %d, memo stale %d after AddNode, want 3 and 2",
			st.Submitted, st.Result.Stale)
	}
}

// TestFleetUpdateAppliesOnce pins the write path over shared state: one
// Update advances the graph every replica reads, and AddNode appends one
// feature row and one node, not one per replica.
func TestFleetUpdateAppliesOnce(t *testing.T) {
	ds, _ := fitted(t)
	f, err := New(ds, Options{Replicas: 2, Serve: serveTemplate(), Dynamic: true},
		sharedModel(t, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	usrc, udst := freshEdges(t, 2)
	applied, ver, err := f.Update(usrc, udst)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 || ver != 1 {
		t.Fatalf("Update applied %d at version %d, want 2 at 1", applied, ver)
	}
	for i := 0; i < f.NumReplicas(); i++ {
		if v := f.Replica(i).Stats().GraphVersion; v != 1 {
			t.Fatalf("replica %d reads graph version %d after Update, want 1", i, v)
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
	if st := f.Stats(); st.MaxVersion != 3 {
		t.Fatalf("fleet MaxVersion = %d, want 3", st.MaxVersion)
	}
	for i := 0; i < f.NumReplicas(); i++ {
		if v := f.Replica(i).Stats().GraphVersion; v != 3 {
			t.Fatalf("replica %d reads graph version %d after AddNode, want 3", i, v)
		}
		if rows := f.Replica(i).FeatureStore().NumNodes(); rows != int(ds.G.N)+1 {
			t.Fatalf("replica %d store holds %d rows, want %d (one appended row)", i, rows, ds.G.N+1)
		}
	}
	// The new node is immediately predictable through the router.
	if _, err := submit(f, id); err != nil {
		t.Fatalf("Submit(new node %d): %v", id, err)
	}
}

// TestDynamicFleetMatchesBareServer: replicas that share one graph answer
// exactly as a bare server given the same writes — label and version —
// after every write, and a node added through the fleet is answerable on
// every replica without a per-replica write.
func TestDynamicFleetMatchesBareServer(t *testing.T) {
	ds, tr := fitted(t)
	dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tmpl := serveTemplate()
	tmpl.Graph = dyn
	bare, err := serve.New(tr.Model, ds, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	f, err := New(ds, Options{Replicas: 2, Serve: serveTemplate(), Dynamic: true},
		sharedModel(t, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	nodes := append([]int32(nil), ds.Test[:24]...)
	check := func(when string) {
		t.Helper()
		for _, v := range nodes {
			want, err := bare.PredictReq(serve.Request{Node: v})
			if err != nil {
				t.Fatalf("%s: bare Predict(%d): %v", when, v, err)
			}
			for i := 0; i < f.NumReplicas(); i++ {
				got, err := f.Replica(i).PredictReq(serve.Request{Node: v})
				if err != nil {
					t.Fatalf("%s: replica %d Predict(%d): %v", when, i, v, err)
				}
				if got != want {
					t.Fatalf("%s: replica %d Predict(%d) = %+v, bare server %+v", when, i, v, got, want)
				}
			}
		}
	}
	check("before writes")
	esrc, edst := freshEdges(t, 4)
	for k := 0; k < 4; k += 2 {
		if _, _, err := bare.Update(esrc[k:k+2], edst[k:k+2]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Update(esrc[k:k+2], edst[k:k+2]); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after update %d", k/2+1))
	}
	feat := make([]float32, ds.FeatDim)
	for j := range feat {
		feat[j] = float32(j%7) / 7
	}
	bid, _, err := bare.AddNode(feat, 0, nodes[:3])
	if err != nil {
		t.Fatal(err)
	}
	fid, _, err := f.AddNode(feat, 0, nodes[:3])
	if err != nil {
		t.Fatal(err)
	}
	if fid != bid {
		t.Fatalf("fleet AddNode id %d, bare server %d", fid, bid)
	}
	nodes = append(nodes, fid)
	check("after AddNode")
}

// TestFleetTransferBillMatchesBareServer: replicas gather through one
// shared base store, so the fleet's transfer bill over a request stream is
// the bare server's — read once from the base when replicas have no
// feature cache, and split into moved plus saved bytes when they do.
func TestFleetTransferBillMatchesBareServer(t *testing.T) {
	ds, tr := fitted(t)
	nodes := ds.Test[:64]
	bare, err := serve.New(tr.Model, ds, serveTemplate())
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	for _, v := range nodes {
		if _, err := bare.PredictReq(serve.Request{Node: v}); err != nil {
			t.Fatal(err)
		}
	}
	want := bare.Stats().BytesTransferred
	if want == 0 {
		t.Fatal("bare server billed no transfer")
	}

	bill := func(cacheRows int) Stats {
		tmpl := serveTemplate()
		tmpl.CacheRows = cacheRows
		f, err := New(ds, Options{Replicas: 2, Serve: tmpl}, sharedModel(t, 2)...)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for _, v := range nodes {
			if _, err := f.PredictReq(serve.Request{Node: v}); err != nil {
				t.Fatal(err)
			}
		}
		return f.Stats()
	}
	if st := bill(0); st.BytesTransferred != want || st.BytesSaved != 0 {
		t.Fatalf("uncached fleet billed %d moved + %d saved bytes, bare server %d moved",
			st.BytesTransferred, st.BytesSaved, want)
	}
	st := bill(int(ds.G.N) / 10)
	if st.BytesSaved == 0 {
		t.Fatal("cached fleet saved no bytes")
	}
	if got := st.BytesTransferred + st.BytesSaved; got != want {
		t.Fatalf("cached fleet billed %d moved + %d saved = %d bytes, bare server %d",
			st.BytesTransferred, st.BytesSaved, got, want)
	}
}

// TestFleetConcurrentServeAndUpdate exercises the full concurrency matrix
// under -race: readers through the router, updates and AddNode growth on
// the shared graph and store, all at once.
func TestFleetConcurrentServeAndUpdate(t *testing.T) {
	ds, _ := fitted(t)
	tmpl := serveTemplate()
	tmpl.QueueCapacity = 4096
	f, err := New(ds, Options{
		Replicas: 2, Serve: tmpl, Dynamic: true, ResultRows: 32,
	}, sharedModel(t, 2)...)
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
				if _, err := submit(f, nodes[(c*25+i)%len(nodes)]); err != nil {
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
	for i, rs := range st.PerReplica {
		if rs.GraphVersion != st.MaxVersion {
			t.Fatalf("replica %d reads version %d, fleet %d", i, rs.GraphVersion, st.MaxVersion)
		}
		if rows := f.Replica(i).FeatureStore().NumNodes(); rows != int(ds.G.N)+3 {
			t.Fatalf("replica %d store holds %d rows, want %d", i, rows, ds.G.N+3)
		}
	}
}

// TestFleetOptionsValidation pins the construction guards and the caller's
// base store: a 2-replica fleet over a caller's fp32 flat store answers each
// node exactly as a bare server over that store does.
func TestFleetOptionsValidation(t *testing.T) {
	ds, tr := fitted(t)
	if _, err := New(ds, Options{Replicas: 2, Serve: serveTemplate()}, tr.Model); err == nil {
		t.Fatal("model count mismatch accepted")
	}
	sopts := serveTemplate()
	sopts.Store = store.NewFlatPrec(ds, half.FP32)
	bare, err := serve.New(tr.Model, ds, sopts)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	f, err := New(ds, Options{Replicas: 2, Serve: sopts}, sharedModel(t, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, v := range ds.Test[:40] {
		want, err := bare.PredictReq(serve.Request{Node: v})
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.PredictReq(serve.Request{Node: v})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("node %d: fleet over the caller's store %+v, bare server %+v", v, got, want)
		}
	}
	if routed := f.Stats().Routed; routed[0] == 0 || routed[1] == 0 {
		t.Fatalf("routed %v: one replica answered everything", routed)
	}
}

// TestFleetCloseLeavesNoGoroutines: a 2-replica fleet with the result
// memo, serving while a writer updates its shared graph, stops every
// goroutine its replicas started by the time Close returns.
func TestFleetCloseLeavesNoGoroutines(t *testing.T) {
	ds, _ := fitted(t)
	models := sharedModel(t, 2)
	base := runtime.NumGoroutine()
	f, err := New(ds, Options{
		Replicas: 2, Serve: serveTemplate(), Dynamic: true, ResultRows: 32,
	}, models...)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := freshEdges(t, 10)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range src {
			if _, _, err := f.Update(src[i:i+1], dst[i:i+1]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if _, err := submit(f, ds.Test[i%20]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if st := f.Stats(); st.Result.Lookups == 0 || st.MaxVersion == 0 {
		t.Fatalf("run exercised neither the memo nor updates: %+v", st.Result)
	}
	f.Close()
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
