package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/fleet"
	"salient/internal/graph"
	"salient/internal/half"
	"salient/internal/infer"
	"salient/internal/mfg"
	"salient/internal/nn"
	"salient/internal/prep"
	"salient/internal/rng"
	"salient/internal/sampler"
	"salient/internal/serve"
	"salient/internal/slicing"
	"salient/internal/store"
	"salient/internal/train"
)

const (
	replicas = 2
	clients  = 2
	// opsPerClient is one round of closed-loop work per client.
	opsPerClient = 520
	// writeEvery makes every writeEvery-th operation of a client an edge
	// insertion of writeEdges edges.
	writeEvery = 20
	writeEdges = 8
	// warmReads per client fill both caches before the VIP refresh.
	warmReads = 256
	// oracleNodes is how many distinct answered nodes are checked against
	// one-shot sampled inference.
	oracleNodes = 400
)

type serveEnv struct {
	ds    *dataset.Dataset
	model nn.Model // the replicas' weights, for the oracle and the replay
	fl    *fleet.Fleet
}

func buildServe(seed uint64) (*serveEnv, float64, error) {
	t0 := time.Now()
	ds, err := genDataset(dataset.Arxiv, arxivScale, seed)
	if err != nil {
		return nil, 0, err
	}
	genMS := ms(time.Since(t0))
	build := func() (nn.Model, error) {
		return train.NewModel("SAGE", nn.ModelConfig{
			In: ds.FeatDim, Hidden: hidden, Out: ds.NumClasses, Layers: len(fanouts), Seed: seed,
		})
	}
	model, err := build()
	if err != nil {
		return nil, 0, err
	}
	models, err := fleet.Replicate(model, replicas, build)
	if err != nil {
		return nil, 0, err
	}
	n := int(ds.G.N)
	fl, err := fleet.New(ds, fleet.Options{
		Replicas: replicas,
		Serve: serve.Options{
			Fanouts: fanouts, Workers: 1, MaxBatch: 32, MaxDelay: 300 * time.Microsecond,
			Seed: seed, CacheRows: n / 5, CachePolicy: cache.VIP,
			EmbCacheRows: n, EmbStaleness: 1,
		},
		Routing: fleet.RouteHash,
		Dynamic: true,
	}, models...)
	if err != nil {
		return nil, 0, err
	}
	return &serveEnv{ds: ds, model: model, fl: fl}, genMS, nil
}

// serveRound is one round of closed-loop traffic.
type serveRound struct {
	wall       time.Duration
	readMS     []float64
	writeMS    []float64
	reads      int64
	failed     int64
	maxVersion uint64
}

// serveRuns is one measured stretch of rounds on one fleet.
type serveRuns struct {
	runs   []serveRound
	allocs []uint64
	stats  fleet.Stats
}

// rate is the median over the stretch's rounds of answered reads over round
// time.
func (b *serveRuns) rate() float64 {
	var rates []float64
	for _, r := range b.runs {
		rates = append(rates, float64(r.reads)/r.wall.Seconds())
	}
	return median(rates)
}

// latency is the median over the stretch's rounds of the round's
// q-quantile read latency in milliseconds. A host slowdown over a minority
// of the rounds puts all of its reads into a pooled p90; the median over
// rounds passes it by, as it does for throughput.
func (b *serveRuns) latency(q float64) float64 {
	var qs []float64
	for _, r := range b.runs {
		qs = append(qs, quantile(r.readMS, q))
	}
	return median(qs)
}

// writer applies the workload's edge insertions to the fleet and to a
// mirror graph that receives the same updates in the same order, so the
// final version can be checked against one-shot inference on the mirror.
type writer struct {
	mu     sync.Mutex
	fl     *fleet.Fleet
	mirror *graph.Dynamic
}

func (w *writer) write(src, dst []int32) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, _, err := w.fl.Update(src, dst); err != nil {
		return err
	}
	_, err := w.mirror.AddEdges(src, dst)
	return err
}

// trafficRound drives one round: each client walks its slice of the Zipf
// stream, reading through the fleet and, given a writer, writing every
// writeEvery-th operation.
func trafficRound(env *serveEnv, w *writer, stream []int32, round int, seed uint64) serveRound {
	n := env.ds.G.N
	per := make([]serveRound, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &per[c]
			out.readMS = make([]float64, 0, opsPerClient)
			r := rng.New(seed ^ uint64(round*clients+c+1)*0xbf58476d1ce4e5b9)
			src, dst := make([]int32, writeEdges), make([]int32, writeEdges)
			base := (round*clients + c) * opsPerClient
			for k := 0; k < opsPerClient; k++ {
				if w != nil && k%writeEvery == writeEvery-1 {
					for e := range src {
						src[e] = int32(r.Intn(int(n)))
						dst[e] = (src[e] + 1 + int32(r.Intn(int(n)-1))) % n
					}
					t0 := time.Now()
					err := w.write(src, dst)
					out.writeMS = append(out.writeMS, ms(time.Since(t0)))
					if err != nil {
						out.failed++
					}
					continue
				}
				v := stream[(base+k)%len(stream)]
				t0 := time.Now()
				p, err := env.fl.Predict(v)
				out.readMS = append(out.readMS, ms(time.Since(t0)))
				out.reads++
				if err != nil {
					out.failed++
					continue
				}
				out.maxVersion = max(out.maxVersion, p.Version)
			}
		}(c)
	}
	wg.Wait()
	total := serveRound{wall: time.Since(start)}
	for _, p := range per {
		total.readMS = append(total.readMS, p.readMS...)
		total.writeMS = append(total.writeMS, p.writeMS...)
		total.reads += p.reads
		total.failed += p.failed
		total.maxVersion = max(total.maxVersion, p.maxVersion)
	}
	return total
}

// oracle answers node v by one-shot sampled inference on topology g, the
// computation a serving replica with no embedding reuse performs.
func oracle(env *serveEnv, g graph.Viewer, seed uint64, v int32) (int32, error) {
	pred, err := infer.Sampled(env.model, env.ds, []int32{v}, infer.Options{
		Fanouts: fanouts, BatchSize: 1, Workers: 1, Seed: seed, Graph: g,
	})
	if err != nil {
		return 0, err
	}
	return pred[0], nil
}

// requestTimes are the replay's per-request layer times.
type requestTimes struct {
	sampleMS, gatherMS, decodeMS, forwardMS []float64
	seeds, nodes, edges                     int64
}

// replayRequests answers each node alone through the layers a replica
// uses — sampler.SampleInto, store.Gather, train.Decoder.Decode and the
// model's forward — timing each call.
func replayRequests(env *serveEnv, g graph.Topology, nodes []int32, seed uint64) (*requestTimes, error) {
	sm := sampler.New(g, fanouts, sampler.FastConfig())
	st := store.NewFlat(env.ds)
	buf := slicing.NewPinned(prep.MaxRowsEstimate(1, fanouts, int(g.NumNodes())), env.ds.FeatDim, 1)
	var m mfg.MFG
	var dec train.Decoder
	t := &requestTimes{}
	for _, v := range nodes {
		t0 := time.Now()
		if err := sm.SampleInto(prep.BatchRNG(seed, 0), []int32{v}, &m); err != nil {
			return nil, fmt.Errorf("replay node %d: %w", v, err)
		}
		t1 := time.Now()
		if err := st.Gather(buf, m.NodeIDs, 1); err != nil {
			return nil, fmt.Errorf("replay node %d: %w", v, err)
		}
		t2 := time.Now()
		x := dec.Decode(buf)
		t3 := time.Now()
		env.model.Forward(x, &m, false)
		t4 := time.Now()
		t.sampleMS = append(t.sampleMS, ms(t1.Sub(t0)))
		t.gatherMS = append(t.gatherMS, ms(t2.Sub(t1)))
		t.decodeMS = append(t.decodeMS, ms(t3.Sub(t2)))
		t.forwardMS = append(t.forwardMS, ms(t4.Sub(t3)))
		t.seeds++
		t.nodes += int64(m.TotalNodes())
		t.edges += int64(m.TotalEdges())
	}
	return t, nil
}

// runServeChurn drives Zipf reads and edge writes against a 2-replica
// hash-routed fleet.
func runServeChurn(cfg config) (*report, error) {
	rep := newReport()
	const name = "serve-churn"
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	var stream []int32
	var w *writer
	// measure drives closed-loop rounds for the given seconds, starting at
	// round first of the Zipf stream.
	measure := func(env *serveEnv, seconds float64, first int) (*serveRuns, error) {
		b := &serveRuns{}
		env.fl.ResetStats()
		allocs, err := rounds(seconds, 2, func(i int) (time.Duration, error) {
			r := trafficRound(env, w, stream, first+i, cfg.seed)
			b.runs = append(b.runs, r)
			return r.wall, nil
		})
		b.allocs, b.stats = allocs, env.fl.Stats()
		return b, err
	}
	var genMS []float64
	var untraced *serveRuns
	env, setupS, err := perBuild(seconds, func() (*serveEnv, error) {
		env, gen, err := buildServe(cfg.seed)
		genMS = append(genMS, gen)
		return env, err
	}, func(e *serveEnv) { e.fl.Close() }, func(env *serveEnv, seconds float64) error {
		ds := env.ds
		if stream == nil {
			stream = serve.ZipfNodes(ds.G.N, 1.0, cfg.seed+101, cfg.seed+7, 1<<16)
		}
		// Warm-up: a read pass fills the VIP frequency sketches and the
		// embedding caches, then every replica re-places its feature cache
		// from what it saw, as `salient serve` does before measuring.
		warm := trafficRound(env, nil, stream[len(stream)-clients*warmReads:], 0, cfg.seed)
		if warm.failed > 0 {
			return fmt.Errorf("%s: %d warm-up reads failed", name, warm.failed)
		}
		for i := 0; i < replicas; i++ {
			cached, ok := env.fl.Replica(i).FeatureStore().(*store.Cached)
			if !ok {
				return fmt.Errorf("%s: replica %d has no cached store", name, i)
			}
			cached.Refresh(ds.G)
		}
		mirror, err := graph.NewDynamic(ds.G, graph.DynamicOptions{})
		if err != nil {
			return err
		}
		w = &writer{fl: env.fl, mirror: mirror}
		untraced, err = measure(env, seconds, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer env.fl.Close()
	ds := env.ds

	// The traced half continues the untraced rounds on the same fleet.
	var traced *serveRuns
	var gcFrac float64
	if cfg.trace {
		gc0 := readGC()
		if traced, err = measure(env, seconds, len(untraced.runs)); err != nil {
			return nil, err
		}
		gcFrac = gc0.since()
	}

	// checkRuns counts a stretch's operations and checks its answers'
	// versions and the feature cache, which re-places itself on every
	// snapshot and must serve hits.
	checkRuns := func(b *serveRuns) {
		var maxSeen uint64
		for _, r := range b.runs {
			rep.attempted += r.reads + int64(len(r.writeMS))
			rep.failed += r.failed
			maxSeen = max(maxSeen, r.maxVersion)
		}
		rep.check(maxSeen <= b.stats.MaxVersion, "%s: an answer reports version %d beyond the final fleet version %d", name, maxSeen, b.stats.MaxVersion)
		rep.check(b.stats.CacheHits > 0, "%s: the VIP feature cache served no hits after the refresh", name)
	}
	checkRuns(untraced)
	if traced != nil {
		checkRuns(traced)
	}
	var reads int64
	for _, r := range untraced.runs {
		reads += r.reads
	}
	rep.check(rep.failed == 0, "%s: %d of %d operations failed", name, rep.failed, rep.attempted)

	// Oracle agreement. The timed answers span many versions, so the
	// fleet is read once more after the writes stop and those answers are
	// checked at the final version against the mirror graph.
	topo := w.mirror
	final := env.fl.Stats().MaxVersion
	rep.check(w.mirror.Version() == final, "%s: mirror graph at version %d, fleet at %d", name, w.mirror.Version(), final)
	answers := map[int32]int32{}
	var checkNodes []int32
	for _, v := range stream {
		if len(checkNodes) == oracleNodes {
			break
		}
		if _, dup := answers[v]; dup {
			continue
		}
		p, err := env.fl.Predict(v)
		if err != nil {
			return nil, err
		}
		rep.check(p.Version == final, "%s: post-write read of node %d at version %d, final %d", name, v, p.Version, final)
		answers[v] = p.Label
		checkNodes = append(checkNodes, v)
	}
	// The floor is how often exact inference under another sampling seed
	// agrees with the oracle: reuse replaces part of a node's sampled
	// neighbourhood, so it must agree at least as often as replacing all
	// of it does.
	agree, floor := 0, 0
	for _, v := range checkNodes {
		want, err := oracle(env, topo, cfg.seed, v)
		if err != nil {
			return nil, err
		}
		other, err := oracle(env, topo, cfg.seed+1, v)
		if err != nil {
			return nil, err
		}
		if answers[v] == want {
			agree++
		}
		if other == want {
			floor++
		}
	}
	agreeFrac := float64(agree) / float64(len(checkNodes))
	rep.check(agree >= floor, "%s: %d of %d answers agree with one-shot inference, below the %d of exact inference under another seed", name, agree, len(checkNodes), floor)
	fmt.Fprintf(os.Stderr, "%s: oracle agreement %d/%d, other-seed floor %d\n", name, agree, len(checkNodes), floor)

	v := rep.values
	v["setup_s"] = setupS
	v["seeds_per_s"] = untraced.rate()
	v["latency_p50_ms"] = untraced.latency(0.5)
	v["latency_p90_ms"] = untraced.latency(0.9)
	v["ok_frac"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	v["peak_rss_mb"] = peakRSSMB()
	v["feature_kb_per_seed"] = float64(untraced.stats.BytesTransferred) / 1024 / float64(reads)
	v["alloc_kb_per_seed"] = allocKBPerSeed(untraced.allocs, func(i int) int64 { return untraced.runs[i].reads })
	v["oracle_agree_frac"] = agreeFrac
	if !cfg.trace {
		return rep, nil
	}

	rt, err := replayRequests(env, topo.View(), checkNodes, cfg.seed)
	if err != nil {
		return nil, err
	}
	fst := traced.stats
	var tracedReads int64
	var tracedMS, writeMS []float64
	for _, r := range traced.runs {
		tracedReads += r.reads
		tracedMS = append(tracedMS, r.readMS...)
		writeMS = append(writeMS, r.writeMS...)
	}
	var occ, srvP50, served, batches float64
	var compactions int64
	for _, rs := range fst.PerReplica {
		occ += rs.Occupancy.Mean * float64(rs.Batches)
		batches += float64(rs.Batches)
		srvP50 += rs.Latency.P50 * 1e3 * float64(rs.Served)
		served += float64(rs.Served)
		compactions += rs.Compactions
	}
	srvP50 /= served
	var most int64
	for _, r := range fst.Routed {
		most = max(most, r)
	}
	v["trace.overhead_frac"] = untraced.rate()/traced.rate() - 1
	v["dataset.gen_ms"] = median(genMS)
	v["graph.versions"] = float64(fst.MaxVersion)
	v["graph.compactions"] = float64(compactions)
	v["sampler.sample_ms"] = median(rt.sampleMS)
	v["sampler.nodes_per_seed"] = float64(rt.nodes) / float64(rt.seeds)
	v["sampler.edges_per_seed"] = float64(rt.edges) / float64(rt.seeds)
	v["store.gather_ms"] = median(rt.gatherMS)
	v["store.rows_per_seed"] = float64(fst.BytesTransferred) / float64(half.FP16.RowBytes(ds.FeatDim)) / float64(tracedReads)
	v["cache.hit_rate"] = float64(fst.CacheHits) / float64(max(fst.CacheLookups, 1))
	v["train.decode_ms"] = median(rt.decodeMS)
	v["nn.forward_ms"] = median(rt.forwardMS)
	v["runtime.gc_cpu_frac"] = gcFrac
	v["serve.occupancy"] = occ / batches
	v["serve.server_p50_ms"] = srvP50
	v["fleet.route_ms"] = quantile(tracedMS, 0.5) - srvP50
	v["fleet.balance"] = float64(most) * float64(len(fst.Routed)) / float64(tracedReads)
	v["fleet.write_p50_ms"] = quantile(writeMS, 0.5)
	v["embcache.hit_rate"] = float64(fst.EmbHits) / float64(max(fst.EmbLookups, 1))
	unused(v, "prep.wait_ms", "prep.worker_busy_frac", "prep.overhead_frac",
		"train.final_loss", "nn.backward_ms", "nn.adam_ms")
	return rep, nil
}
