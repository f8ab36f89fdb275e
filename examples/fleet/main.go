// Fleet demo: the replicated serving front end — consistent-hash affinity
// routing, deadline/priority admission, and the versioned result memo.
//
// One trained model, N in-process replicas behind a router. Four
// properties are on display:
//
//  1. A fleet of one is the bare server: same seeds, bit-identical
//     predictions. The router layer is free until you replicate.
//
//  2. Affinity keeps partitioned caches hot. At a FIXED total cache
//     budget split across replicas, consistent-hash routing sends each
//     node to the same replica every time, so each replica's VIP cache
//     learns its own slice of the hot set. Random routing dilutes every
//     cache with the full distribution — same hardware, colder caches.
//
//  3. Admission sheds the low priority class first, and every refusal
//     says why: the stats separate deadline sheds (provably infeasible
//     under the live p95 service estimate), priority sheds (queue
//     occupancy crossed the class's share), and capacity sheds (ring
//     full) instead of one bare "saturated" error.
//
//  4. Replicas share one graph, so a mutation is applied once and every
//     replica sees it, and the result memo — keyed by (node, graph
//     version) — invalidates the moment the version advances, so a
//     memoized answer is never stale.
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/fleet"
	"salient/internal/nn"
	"salient/internal/serve"
	"salient/internal/store"
	"salient/internal/train"
)

const seed = 42

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleet: ")

	ds, err := dataset.Load(dataset.Arxiv, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fanouts := []int{10, 5}
	tr, err := train.New(ds, train.Config{
		Arch: "SAGE", Hidden: 32, Layers: 2, Fanouts: fanouts,
		BatchSize: 128, Workers: 2, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training 2 epochs...")
	if _, err := tr.Fit(2); err != nil {
		log.Fatal(err)
	}
	build := func() (nn.Model, error) {
		return train.NewModel("SAGE", nn.ModelConfig{
			In: ds.FeatDim, Hidden: 32, Out: ds.NumClasses, Layers: 2, Seed: 3,
		})
	}
	template := serve.Options{
		Fanouts: fanouts, Workers: 2, MaxBatch: 16, Seed: seed,
	}

	// 1. Fleet of one == bare server, bit for bit.
	bare, err := serve.New(tr.Model, ds, template)
	if err != nil {
		log.Fatal(err)
	}
	models, err := fleet.Replicate(tr.Model, 1, build)
	if err != nil {
		log.Fatal(err)
	}
	one, err := fleet.New(ds, fleet.Options{Replicas: 1, Serve: template}, models...)
	if err != nil {
		log.Fatal(err)
	}
	same := 0
	probe := ds.Test[:50]
	for _, v := range probe {
		a, err := bare.Predict(v)
		if err != nil {
			log.Fatal(err)
		}
		b, err := one.Predict(v)
		if err != nil {
			log.Fatal(err)
		}
		if a == b {
			same++
		}
	}
	bare.Close()
	one.Close()
	fmt.Printf("\n1. fleet of one vs bare server: %d/%d predictions bit-identical\n",
		same, len(probe))

	// 2. Affinity vs random routing at a fixed TOTAL cache budget.
	const replicas = 3
	requests := 3000
	warm := serve.ZipfNodes(ds.G.N, 1.1, seed+101, seed+7, requests)
	meas := serve.ZipfNodes(ds.G.N, 1.1, seed+101, seed+8, requests)
	totalRows := int(ds.G.N) / 5
	fmt.Printf("\n2. %d replicas, %d VIP cache rows TOTAL (%d each), Zipf(1.1) traffic:\n",
		replicas, totalRows, totalRows/replicas)
	for _, routing := range []fleet.Routing{fleet.RouteHash, fleet.RouteRandom} {
		tmpl := template
		tmpl.CacheRows = totalRows / replicas
		tmpl.CachePolicy = cache.VIP
		models, err := fleet.Replicate(tr.Model, replicas, build)
		if err != nil {
			log.Fatal(err)
		}
		fl, err := fleet.New(ds, fleet.Options{
			Replicas: replicas, Serve: tmpl, Routing: routing, Seed: seed,
		}, models...)
		if err != nil {
			log.Fatal(err)
		}
		serve.DriveClosedLoop(fl, warm, 8, len(warm))
		for i := 0; i < replicas; i++ {
			if c, ok := fl.Replica(i).FeatureStore().(*store.Cached); ok {
				c.Refresh(ds.G)
			}
		}
		fl.ResetStats()
		serve.DriveClosedLoop(fl, meas, 8, len(meas))
		st := fl.Stats()
		fmt.Printf("  %-6s routing: feature hit rate %3.0f%%  answered per replica %v\n",
			routing, 100*st.CombinedCacheHitRate(), st.Routed)
		fl.Close()
	}

	// 3. Overload: a tiny queue, two priority classes, per-request
	// deadlines. The low class pays first; every refusal carries a reason.
	tmpl := template
	tmpl.QueueCapacity = 16
	models, err = fleet.Replicate(tr.Model, 2, build)
	if err != nil {
		log.Fatal(err)
	}
	fl, err := fleet.New(ds, fleet.Options{
		Replicas: 2, Serve: tmpl, PriorityLevels: 2, Seed: seed,
	}, models...)
	if err != nil {
		log.Fatal(err)
	}
	serve.DriveClosedLoop(fl, warm[:500], 4, 500) // live the service-time estimate
	fl.ResetStats()
	var lowShed, highShed atomic.Int64
	var sampleMu sync.Mutex
	var sample error
	var wg sync.WaitGroup
	for c := 0; c < 24; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(meas); i += 24 {
				pri := uint8(0)
				if i%4 == 0 {
					pri = 1
				}
				_, err := fl.PredictReq(serve.Request{
					Node: meas[i], Priority: pri,
					Deadline: time.Now().Add(time.Second),
				})
				if err != nil {
					if pri == 1 {
						highShed.Add(1)
					} else {
						lowShed.Add(1)
					}
					sampleMu.Lock()
					if sample == nil {
						sample = err
					}
					sampleMu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	st := fl.Stats()
	fmt.Printf("\n3. overload, queue 16/replica, every 4th request high priority:\n")
	fmt.Printf("  low  priority: %d shed\n  high priority: %d shed\n",
		lowShed.Load(), highShed.Load())
	var se *fleet.ShedError
	if errors.As(sample, &se) {
		fmt.Printf("  sample refusal: %v\n", se)
	}
	fmt.Printf("  shed taxonomy: deadline %d, priority %d, capacity %d\n",
		st.ShedDeadlines, st.ShedPriorities, st.ShedCapacities)
	fl.Close()

	// 4. Versioned result memo over the shared graph.
	models, err = fleet.Replicate(tr.Model, 2, build)
	if err != nil {
		log.Fatal(err)
	}
	fl, err = fleet.New(ds, fleet.Options{
		Replicas: 2, Serve: template, Dynamic: true,
		ResultRows: 1024, Seed: seed,
	}, models...)
	if err != nil {
		log.Fatal(err)
	}
	node := ds.Test[0]
	p1, err := fl.Predict(node)
	if err != nil {
		log.Fatal(err)
	}
	p2, err := fl.Predict(node) // memo hit: same (node, version)
	if err != nil {
		log.Fatal(err)
	}
	rs := fl.Stats().Result
	fmt.Printf("\n4. result memo at graph v%d: repeat predict hit %d/%d lookups (answers %d == %d)\n",
		p1.Version, rs.Hits, rs.Lookups, p1.Label, p2.Label)

	// One mutation, applied once to the shared graph, advances the version
	// both replicas read; the memoized entry for the old version dies with
	// it.
	feat := make([]float32, ds.FeatDim)
	id, ver, err := fl.AddNode(feat, 0, []int32{node})
	if err != nil {
		log.Fatal(err)
	}
	p3, err := fl.Predict(node)
	if err != nil {
		log.Fatal(err)
	}
	st = fl.Stats()
	fmt.Printf("  AddNode -> id %d at v%d, replicas read v%d/v%d; re-predict is v%d, memo invalidated %d\n",
		id, ver, st.PerReplica[0].GraphVersion, st.PerReplica[1].GraphVersion, p3.Version, st.Result.Invalidated)
	fl.Close()

	fmt.Println("\naffinity turns N small caches into one big one; admission")
	fmt.Println("refuses work by class and reason; the memo is never stale")
}
