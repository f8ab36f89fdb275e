// Embcache demo: adaptive frequency-based caching + historical-embedding
// reuse — the read-heavy serving levers layered on SALIENT's data path.
//
// Two mechanisms are on display, both driven by a Zipf-skewed request mix
// (a handful of celebrity nodes soak up most of the traffic):
//
//  1. VIP feature-cache placement (internal/cache). The static policy
//     pins the top-K degree rows forever; VIP admits rows by observed
//     access frequency x miss cost, so at equal capacity it moves
//     strictly fewer feature bytes once the hot set and the hub set
//     diverge.
//
//  2. Historical layer-embedding reuse (internal/embcache). Completed
//     batches deposit first-layer output embeddings keyed by
//     (node, graph version) at zero extra forward cost; later requests
//     whose frontier hits a fresh-enough entry skip that node's fan-out
//     expansion entirely — no sampling, no feature gather, no layer-1
//     aggregation. Staleness 0 only reuses same-version embeddings and
//     is bit-identical to serving without reuse; staleness >= 1 trades
//     bounded staleness for tail latency.
package main

import (
	"fmt"
	"log"
	"time"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/serve"
	"salient/internal/store"
	"salient/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("embcache: ")

	ds, err := dataset.Load(dataset.Arxiv, 0.15)
	if err != nil {
		log.Fatal(err)
	}
	fanouts := []int{10, 5}
	tr, err := train.New(ds, train.Config{
		Arch: "SAGE", Hidden: 64, Layers: 2, Fanouts: fanouts,
		BatchSize: 256, Workers: 4, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training 3 epochs...")
	if _, err := tr.Fit(3); err != nil {
		log.Fatal(err)
	}

	// Zipf(1.1) popularity over all N nodes. The permutation seed is shared
	// between the warm and measured streams so both hit the same celebrity
	// set; the draw seeds differ so the measured pass is not a replay.
	const seed = 42
	const requests = 2000
	warm := serve.ZipfNodes(ds.G.N, 1.1, seed+101, seed+7, requests)
	meas := serve.ZipfNodes(ds.G.N, 1.1, seed+101, seed+8, requests)
	cacheRows := int(ds.G.N) / 5

	// 1. Cache placement: static top-degree vs VIP frequency x cost, same
	// row budget, same traffic.
	fmt.Printf("\ncache placement at %d rows under Zipf(1.1) traffic:\n", cacheRows)
	for _, policy := range []cache.Policy{cache.StaticDegree, cache.VIP} {
		cached, err := store.NewCachedOpts(store.NewFlat(ds), ds.G,
			store.CacheOptions{Rows: cacheRows, Policy: policy})
		if err != nil {
			log.Fatal(err)
		}
		srv, err := serve.New(tr.Model, ds, serve.Options{
			Fanouts: fanouts, Workers: 4, MaxBatch: 32, Seed: seed, Store: cached,
		})
		if err != nil {
			log.Fatal(err)
		}
		// The warm pass feeds the frequency sketch; Refresh re-places the
		// resident set from it before the measured pass.
		serve.DriveClosedLoop(srv, warm, 8, len(warm))
		cached.Refresh(ds.G)
		srv.ResetStats()
		serve.DriveClosedLoop(srv, meas, 8, len(meas))
		srv.Close()
		ss := cached.Stats()
		fmt.Printf("  %-13s hit rate %3.0f%%  %.1f MB moved  %.1f MB saved\n",
			policy, 100*ss.HitRate(), float64(ss.BytesMoved)/(1<<20),
			float64(ss.BytesSaved)/(1<<20))
	}

	// 2. Embedding reuse. Staleness 0 first: lookups happen, hits cannot
	// (a static graph never revisits version 0 "in the past"), answers are
	// bit-identical to a bare server.
	bare, err := serve.New(tr.Model, ds, serve.Options{
		Fanouts: fanouts, Workers: 1, MaxBatch: 1, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	strict, err := serve.New(tr.Model, ds, serve.Options{
		Fanouts: fanouts, Workers: 1, MaxBatch: 1, Seed: seed,
		EmbCacheRows: 4096, EmbStaleness: 0,
	})
	if err != nil {
		log.Fatal(err)
	}
	same := 0
	probe := meas[:200]
	for _, v := range probe {
		a, err := bare.Submit(v)
		if err != nil {
			log.Fatal(err)
		}
		b, err := strict.Submit(v)
		if err != nil {
			log.Fatal(err)
		}
		if a == b {
			same++
		}
	}
	bare.Close()
	strict.Close()
	fmt.Printf("\nstaleness 0 vs no reuse: %d/%d predictions identical (oracle mode)\n",
		same, len(probe))

	// Staleness 1 with a warm pass: hot frontier nodes now carry a cached
	// embedding, so the measured pass truncates their fan-out.
	reuse, err := serve.New(tr.Model, ds, serve.Options{
		Fanouts: fanouts, Workers: 4, MaxBatch: 32, Seed: seed,
		EmbCacheRows: 4096, EmbStaleness: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	serve.DriveClosedLoop(reuse, warm, 8, len(warm))
	reuse.ResetStats()
	wall := serve.DriveClosedLoop(reuse, meas, 8, len(meas))
	st := reuse.Stats()
	fmt.Printf("\nstaleness 1 after a %d-request warm pass:\n", len(warm))
	fmt.Printf("  %d served in %v, latency p50 %.2fms p99 %.2fms\n",
		st.Served, wall.Round(time.Millisecond),
		st.Latency.P50*1e3, st.Latency.P99*1e3)
	fmt.Printf("  frontier: %d lookups, %d hits (%.0f%% of expansions truncated)\n",
		st.EmbLookups, st.EmbHits, 100*st.EmbHitRate())

	// Agreement against the no-reuse oracle on the probe set.
	oracle, err := serve.New(tr.Model, ds, serve.Options{
		Fanouts: fanouts, Workers: 1, MaxBatch: 1, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	agree := 0
	for _, v := range probe {
		a, err := oracle.Submit(v)
		if err != nil {
			log.Fatal(err)
		}
		b, err := reuse.Submit(v)
		if err != nil {
			log.Fatal(err)
		}
		if a == b {
			agree++
		}
	}
	oracle.Close()
	reuse.Close()
	fmt.Printf("  agreement with the exact sampler: %d/%d (%.1f%%)\n",
		agree, len(probe), 100*float64(agree)/float64(len(probe)))
	fmt.Println("\nbounded staleness buys truncated fan-out on the hot set;")
	fmt.Println("staleness 0 keeps the bit-identical guarantee")
}
