// Serving demo: the online inference layer built on SALIENT's data path.
//
// The paper's §5 argument is that sampled inference reuses the training
// pipeline; this example takes that to its serving conclusion. A trained
// model goes behind serve.Server, concurrent clients submit single-node
// prediction requests, and the server coalesces whatever is queued into
// micro-batches that run the executor path end-to-end: per-request
// neighborhood sampling, a block-diagonal MFG merge, one pinned-buffer
// slice, one model forward.
//
// Three properties are on display:
//
//  1. Determinism — an answer never depends on how requests were batched;
//     Submit(v) equals one-shot infer.Sampled on {v}.
//  2. Coalescing — requests that queue during an execution share the next
//     micro-batch, so concurrent load raises occupancy and amortizes
//     per-batch costs the way training batches do.
//  3. Backpressure — a tiny admission queue sheds overload as explicit
//     rejections instead of queueing latency.
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/infer"
	"salient/internal/serve"
	"salient/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serving: ")

	ds, err := dataset.Load(dataset.Arxiv, 0.15)
	if err != nil {
		log.Fatal(err)
	}
	fanouts := []int{10, 5}
	tr, err := train.New(ds, train.Config{
		Arch: "SAGE", Hidden: 64, Layers: 2, Fanouts: []int{15, 10},
		BatchSize: 256, Workers: 4, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training 4 epochs...")
	if _, err := tr.Fit(4); err != nil {
		log.Fatal(err)
	}

	const seed = 42
	srv, err := serve.New(tr.Model, ds, serve.Options{
		Fanouts: fanouts, Workers: 4, MaxBatch: 32, Seed: seed,
		CacheRows: int(ds.G.N) / 5, CachePolicy: cache.StaticDegree,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 1. Determinism: serving answers equal one-shot sampled inference.
	fmt.Println("\nper-request determinism (Submit vs one-shot infer.Sampled):")
	for _, v := range ds.Test[:5] {
		got, err := srv.Submit(v)
		if err != nil {
			log.Fatal(err)
		}
		want, err := infer.Sampled(tr.Model, ds, []int32{v}, infer.Options{
			Fanouts: fanouts, BatchSize: 1, Workers: 1, Seed: seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  node %6d  serve=%2d  one-shot=%2d  label=%2d  match=%v\n",
			v, got, want[0], ds.Labels[v], got == want[0])
	}

	// 2. Coalescing under concurrent load.
	fmt.Println("\n64 concurrent clients, 16 requests each:")
	var wg sync.WaitGroup
	var correct atomic.Int64
	start := time.Now()
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				v := ds.Test[(g*16+i)%len(ds.Test)]
				label, err := srv.Submit(v)
				if err != nil {
					log.Fatal(err)
				}
				if label == ds.Labels[v] {
					correct.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)
	st := srv.Stats()
	fmt.Printf("  %d served in %v (%.0f rps), accuracy %.3f\n",
		st.Served, wall.Round(time.Millisecond),
		float64(64*16)/wall.Seconds(), float64(correct.Load())/float64(64*16))
	fmt.Printf("  occupancy mean %.1f req/batch, latency p50 %.2fms p99 %.2fms\n",
		st.Occupancy.Mean, st.Latency.P50*1e3, st.Latency.P99*1e3)
	fmt.Printf("  feature cache hit rate %.0f%%, %.1f MB transfer saved\n",
		100*st.CacheHitRate(), float64(st.BytesSaved)/(1<<20))
	srv.Close()

	// 3. Backpressure: a 2-slot admission queue under a hot burst.
	small, err := serve.New(tr.Model, ds, serve.Options{
		Fanouts: fanouts, Workers: 1, MaxBatch: 4, QueueCapacity: 2, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	var served, rejected atomic.Int64
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := small.Submit(ds.Test[g%len(ds.Test)]); err != nil {
					rejected.Add(1)
				} else {
					served.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	small.Close()
	fmt.Printf("\noverload against a 2-slot queue: %d served, %d rejected (ErrSaturated)\n",
		served.Load(), rejected.Load())
	fmt.Println("backpressure sheds load explicitly; accepted requests keep their latency")
}
