// Command salient regenerates the paper's tables and figures and runs quick
// training/inference demos on the synthetic stand-in datasets.
//
// Usage:
//
//	salient list                      list the paper exhibits
//	salient all [flags]               run every exhibit
//	salient <exhibit> [flags]         run one: fig1..fig6, table1..table3,
//	                                  table6, table7
//	salient train [flags]             train a model and report per-epoch stats
//	salient serve [flags]             train briefly, then serve online
//	                                  sampled-inference traffic and report
//	                                  latency/occupancy/cache statistics
//	salient gen [flags] <file>        generate a dataset and save its container
//	salient stats [<file>]            print dataset statistics
//
// Flags:
//
//	-seed N        RNG seed for the virtual-time simulations (default 1)
//	-full          use the thorough accuracy preset instead of the quick one
//	-all           fig2 only: print the full 96-point scatter
//	-trace PREFIX  fig1 only: also write Chrome trace JSON files
//	-arch NAME     train: SAGE | GAT | GIN | SAGE-RI (default SAGE)
//	-dataset NAME  train/gen/stats: arxiv | products | papers (default arxiv)
//	-scale F       train/gen/stats: dataset scale factor (default 0.3)
//	-epochs N      train: number of epochs (default 5)
//	-executor E    train: salient | pyg (default salient)
//	-replicas R    train: execute real data-parallel training on R model
//	               replicas (default 1). Results are bit-identical to
//	               single-replica training on the union batch schedule.
//	               serve: serve through R replicas behind the fleet router
//	               (default 1); one replica answers as a bare server does.
//	-workers N     train/serve: preparation/batching workers (default 4;
//	               per replica with -replicas)
//	-store S       train/serve: feature store: flat | sharded | cached |
//	               sharded+cached (default: flat for train; for serve,
//	               cached when -cachefrac > 0, else flat). serve shares one
//	               flat or sharded base across replicas, and a cached kind
//	               gives each replica its own cache over it.
//	-precision P   train/serve: feature storage precision: fp16 | fp32 |
//	               int8 (default fp16). int8 stores rows quantized with a
//	               per-row scale, halving feature bytes moved versus fp16;
//	               rows dequantize on gather.
//	-fused         train: fuse the layer-0 gather+aggregate into the batch
//	               pipeline (SAGE and GIN with the salient executor).
//	               Bit-identical to the staged path; skips staging/decoding
//	               the full feature matrix.
//	-parts N       train/serve: shard count for -store sharded (default 4)
//	-placement P   train/serve: shard placement: ldg | random (default ldg)
//	-transport T   train with -replicas R >= 2: run the distributed data
//	               plane — each replica owns one partition (LDG placement)
//	               and trains through a remote feature store and a
//	               partitioned topology view over T = loopback | tcp.
//	               Results are bit-identical to single-host training; the
//	               run reports real per-host wire traffic. -cachefrac sizes
//	               each host's degree-warmed mirror of hot remote rows.
//	-hosts N       train with -transport: partition/host count (default:
//	               -replicas; must equal it — one partition per replica)
//	-rate F        serve: offered load in requests/sec (0 = closed loop)
//	-requests N    serve: number of requests to serve (default 4000)
//	-maxbatch N    serve: micro-batch size cap (default 32)
//	-cachefrac F   serve, and train with -store cached: feature cache size
//	               as a fraction of N (default 0.2), split across serve
//	               replicas
//	-cachepolicy P train/serve with a cached store: cache placement policy:
//	               degree | vip (default degree). vip places rows by
//	               observed access frequency, adapting the resident set to
//	               the live request mix. -transport mirrors by degree only.
//	-embrows N     serve: rows in the historical layer-embedding cache
//	               (default 0 = reuse off). Hot frontier nodes with a fresh
//	               cached first-layer embedding skip fan-out expansion;
//	               requires -arch SAGE or GIN.
//	-embstale K    serve with -embrows: staleness window in graph versions
//	               (default 1): an embedding computed at most K versions
//	               before the pinned one is reused. 0 never reuses, which
//	               is bit-identical to serving without reuse.
//	-zipf S        serve: draw request nodes from a Zipf(S) popularity
//	               distribution over all N nodes instead of cycling the
//	               test split (default 0 = cycle)
//	-poisson       serve with -rate: Poisson arrivals (exponential gaps)
//	               instead of fixed-interval pacing
//	-dynamic       train/serve: run over a mutable dynamic graph (snapshot-
//	               consistent views of the dataset graph; with zero churn,
//	               results are bit-identical to the static baseline)
//	-churn F       train/serve with -dynamic: stream F random edge
//	               updates/sec into the graph while training epochs or
//	               serving traffic run (default 0; in serve, each update is
//	               applied once to the graph every replica shares)
//	-routing P     serve: request routing across replicas: hash
//	               (consistent-hash affinity) | random (default hash)
//	-resultrows N  serve: rows in the versioned result memo in front of
//	               the router; an entry stops hitting when the graph
//	               version advances (default 0 = off)
//
// Bad flag values exit with status 2 and a usage message instead of running
// with silently substituted defaults.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"salient/internal/bench"
	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/device"
	"salient/internal/dist"
	"salient/internal/fleet"
	"salient/internal/graph"
	"salient/internal/nn"
	"salient/internal/serve"
	"salient/internal/store"
	"salient/internal/train"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var f cliFlags
	f.register(fs)
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if err := f.validate(cmd); err != nil {
		fmt.Fprintf(os.Stderr, "salient %s: %v\n", cmd, err)
		usage()
		os.Exit(2)
	}
	f.resolveStore(cmd)

	opts := bench.DefaultOptions()
	opts.Seed = f.seed
	opts.AllRows = f.allRows
	if f.full {
		opts.Accuracy = bench.FullAcc()
	}

	switch cmd {
	case "list":
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
	case "all":
		if err := bench.RunAll(os.Stdout, opts); err != nil {
			fatal(err)
		}
	case "train":
		if err := runTrain(f); err != nil {
			fatal(err)
		}
	case "serve":
		if err := runServe(f); err != nil {
			fatal(err)
		}
	case "gen":
		if err := runGen(f.dataset, f.scale, fs.Args()); err != nil {
			fatal(err)
		}
	case "stats":
		if err := runStats(f.dataset, f.scale, fs.Args()); err != nil {
			fatal(err)
		}
	case "help", "-h", "--help":
		usage()
	default:
		if err := bench.RunOne(os.Stdout, cmd, opts); err != nil {
			fatal(err)
		}
		if f.tracePrefix != "" {
			if err := writeTraces(f.tracePrefix, f.seed); err != nil {
				fatal(err)
			}
		}
	}
}

// writeTraces exports Chrome trace-event JSON for both Figure 1 timelines.
func writeTraces(prefix string, seed uint64) error {
	baseline, salient := bench.TraceFiles(seed)
	for _, tc := range []struct {
		name  string
		trace interface{ ChromeJSON(io.Writer) error }
	}{
		{prefix + "-baseline.json", baseline},
		{prefix + "-salient.json", salient},
	} {
		f, err := os.Create(tc.name)
		if err != nil {
			return err
		}
		if err := tc.trace.ChromeJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", tc.name)
	}
	return nil
}

// churnRun bundles the dynamic-graph scaffolding the train and serve
// subcommands share: the background update stream (the shared
// serve.DriveChurn pacing, fed through an apply function) and, for train,
// the mode banner, the per-epoch version suffix, and the final
// applied/version/compactions report over its graph. The zero value
// (static run) renders nothing and streams nothing.
type churnRun struct {
	dyn  *graph.Dynamic
	rate float64
	stop func() int64
}

// newChurnRun streams rate random edge updates/sec through apply (nil, or
// rate 0, streams nothing). dyn is the graph train reports on; nil for a
// static run and for serve, whose fleet owns its graph.
func newChurnRun(dyn *graph.Dynamic, apply func(src, dst []int32) (int, error), n int32, rate float64, seed uint64) *churnRun {
	c := &churnRun{dyn: dyn, rate: rate}
	if apply == nil || rate <= 0 {
		return c
	}
	done := make(chan struct{})
	finished := make(chan int64, 1)
	go func() {
		finished <- serve.DriveChurn(apply, n, rate, seed, done)
	}()
	c.stop = func() int64 {
		close(done)
		return <-finished
	}
	return c
}

// halt stops the update stream and returns how many updates it applied.
func (c *churnRun) halt() int64 {
	if c.stop == nil {
		return 0
	}
	return c.stop()
}

// mode describes the run for the training banner.
func (c *churnRun) mode() string {
	if c.dyn == nil {
		return "static graph"
	}
	return fmt.Sprintf("dynamic graph (%.0f updates/s)", c.rate)
}

// epochSuffix is the per-epoch graph-version annotation.
func (c *churnRun) epochSuffix() string {
	if c.dyn == nil {
		return ""
	}
	return fmt.Sprintf("  graph v%d", c.dyn.Version())
}

// finish stops the update stream and prints the dynamic-run epilogue.
func (c *churnRun) finish() {
	if c.dyn == nil {
		return
	}
	fmt.Printf("dynamic graph: %d edge updates applied, final version %d, %d compactions\n",
		c.halt(), c.dyn.Version(), c.dyn.Compactions())
}

// runTrain trains on f.replicas data-parallel replicas, synchronized per
// step by gradient averaging; one replica is plain mini-batch training.
// BatchSize is per replica, so the effective batch grows with R (the
// paper's §6 scaling regime). With -transport, each replica owns one
// partition of an LDG placement and trains through a store.Remote and a
// graph.Partitioned over the chosen wire — bit-identical results, real
// network accounting.
func runTrain(f cliFlags) error {
	ds, err := dataset.Load(f.dataset, f.scale)
	if err != nil {
		return err
	}
	cfg := train.Config{
		Arch:     f.arch,
		Hidden:   64,
		Workers:  f.workers,
		Seed:     f.seed,
		Fused:    f.fused,
		Replicas: f.replicas,
	}
	if f.executor == "pyg" {
		cfg.Executor = train.ExecPyG
	}
	pipeline := "staged"
	if f.fused {
		pipeline = "fused"
	}
	mode := fmt.Sprintf("%s %s store (%s gather)", f.prec, f.storeKind, pipeline)
	var cluster *dist.Cluster
	if f.distributed() {
		cluster, err = dist.NewCluster(ds, dist.ClusterOptions{
			Parts:     f.hosts,
			TCP:       f.transport == "tcp",
			Precision: f.prec,
			CacheRows: f.cacheRows(ds.G.N),
		})
		if err != nil {
			return err
		}
		defer cluster.Close()
		cfg.Stores = cluster.Stores
		cfg.Graphs = cluster.Graphs
		mode = fmt.Sprintf("distributed over %s (%d hosts, %s rows, %d-row mirrors)",
			f.transport, f.hosts, f.prec, f.cacheRows(ds.G.N))
	} else if cfg.Store, err = buildStore(ds, f); err != nil {
		return err
	}
	var dyn *graph.Dynamic
	var apply func(src, dst []int32) (int, error)
	if f.dynamic {
		if dyn, err = graph.NewDynamic(ds.G, graph.DynamicOptions{}); err != nil {
			return err
		}
		cfg.Graph, apply = dyn, dyn.AddEdges
	}
	churn := newChurnRun(dyn, apply, ds.G.N, f.churn, f.seed+77)
	tr, err := train.New(ds, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("training %s on %s (N=%d, train=%d) with the %s executor, %d replica(s), %s, %s\n",
		f.arch, ds.Name, ds.G.N, len(ds.Train), f.executor, f.replicas, mode, churn.mode())
	for e := 0; e < f.epochs; e++ {
		s, err := tr.TrainEpoch(e)
		if err != nil {
			return err
		}
		fmt.Printf("epoch %2d  loss %.4f  train-acc %.4f  wall %v (%d steps, sync %.0f%%, prep-wait %v, compute %v)%s\n",
			s.Epoch, s.Loss, s.Acc, s.Wall.Round(1e6), s.Steps,
			100*s.SyncFraction(), s.PrepWait.Round(1e6), s.Compute.Round(1e6), churn.epochSuffix())
	}
	churn.finish()
	printStoreStats(tr.FeatureStore())
	if cluster != nil {
		printWireStats(cluster, f.replicas)
	}
	return nil
}

// printWireStats summarizes the cluster's network traffic: per-host remote
// feature bytes and adjacency bytes, as charged by the transport's frame
// accounting (identical to socket bytes over TCP), plus what that traffic
// would cost on the paper's 10 GigE testbed network.
func printWireStats(c *dist.Cluster, hosts int) {
	var feat, adj, calls int64
	for r := 0; r < hosts; r++ {
		st := c.Remote(r).Stats()
		feat += st.BytesRemote
		adj += c.Partitioned(r).Stats().WireBytes
		fmt.Printf("host %d: %.1f MB feature wire traffic (%d rows remote, cache hit rate %.0f%%), %.1f MB adjacency\n",
			r, float64(st.BytesRemote)/(1<<20), st.RowsRemote, 100*st.HitRate(),
			float64(c.Partitioned(r).Stats().WireBytes)/(1<<20))
	}
	for _, conn := range c.Conns() {
		calls += conn.Stats().Calls
	}
	pr := device.PaperProfile()
	fmt.Printf("cluster wire total: %.1f MB features + %.1f MB adjacency in %d calls (modeled 10 GigE time %.2fs)\n",
		float64(feat)/(1<<20), float64(adj)/(1<<20), calls, pr.WireTime(feat+adj, calls))
}

// printStoreStats summarizes the feature store's transfer accounting.
func printStoreStats(st store.FeatureStore) {
	ss := st.Stats()
	fmt.Printf("feature store: %d gathers, %d rows, %.1f MB moved",
		ss.Gathers, ss.Rows, float64(ss.BytesMoved)/(1<<20))
	if ss.CacheLookups > 0 {
		fmt.Printf(", %.1f MB saved by cache (hit rate %.0f%%)",
			float64(ss.BytesSaved)/(1<<20), 100*ss.HitRate())
	}
	if ss.RowsRemote > 0 {
		fmt.Printf(", %.0f%% of rows cross-shard", 100*ss.RemoteFrac())
	}
	fmt.Println()
}

// runServe trains a model briefly, stands up -replicas serving replicas
// behind the fleet router (a fleet of one answers as a bare server does),
// drives them with synthetic single-node request traffic, and prints the
// serving statistics.
func runServe(f cliFlags) error {
	ds, err := dataset.Load(f.dataset, f.scale)
	if err != nil {
		return err
	}
	fanouts := []int{10, 5}
	tr, err := train.New(ds, train.Config{
		Arch: f.arch, Hidden: 64, Layers: len(fanouts), Fanouts: fanouts,
		BatchSize: 128, Workers: f.workers, Seed: f.seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("warming up: training %s on %s for %d epochs...\n", f.arch, ds.Name, f.epochs)
	if _, err := tr.Fit(f.epochs); err != nil {
		return err
	}

	// Every replica shares one base store, the -store layout at -precision.
	// A cached kind gives each replica its own cache layer over it, and the
	// total -cachefrac budget is split across them, so growing the fleet
	// redistributes the same cache capacity instead of adding more.
	perCache := 0
	if layout, ok := strings.CutSuffix(f.storeKind, "cached"); ok {
		f.storeKind = strings.TrimSuffix(layout, "+")
		perCache = max(f.cacheRows(ds.G.N)/f.replicas, 1)
	}
	base, err := buildStore(ds, f)
	if err != nil {
		return err
	}
	models := make([]nn.Model, f.replicas)
	for i := range models {
		models[i] = tr.Model
	}
	fl, err := fleet.New(ds, fleet.Options{
		Replicas: f.replicas,
		Serve: serve.Options{
			Fanouts: fanouts, Workers: f.workers, MaxBatch: f.maxBatch, Seed: f.seed,
			Store: base, CacheRows: perCache, CachePolicy: f.policy,
			EmbCacheRows: f.embRows, EmbStaleness: f.embStale,
		},
		Routing: f.routePolicy, ResultRows: f.resultRows,
		Dynamic: f.dynamic, Seed: f.seed,
	}, models...)
	if err != nil {
		return err
	}
	defer fl.Close()

	nodes := ds.Test
	stream := fmt.Sprintf("%d test nodes", len(ds.Test))
	if f.zipf > 0 {
		nodes = serve.ZipfNodes(ds.G.N, f.zipf, f.seed+101, f.seed+7, f.requests)
		stream = fmt.Sprintf("Zipf(%.2f) draws over %d nodes", f.zipf, ds.G.N)
	}
	mode := "closed-loop (16 clients)"
	if f.rate > 0 {
		mode = fmt.Sprintf("open-loop at %.0f rps", f.rate)
		if f.poisson {
			mode += " (Poisson)"
		}
	}
	// A VIP cache places rows by observed access frequency, so on a static
	// graph the run warms the caches with a prefix of the workload and
	// refreshes every replica's resident set once before the measured pass
	// (dynamic graphs refresh as workers adopt new snapshots instead).
	if f.policy == cache.VIP && perCache > 0 && !f.dynamic {
		warm := nodes[:min(len(nodes), 512)]
		serve.DriveClosedLoop(fl, warm, 8, len(warm))
		for i := 0; i < fl.NumReplicas(); i++ {
			if cached, ok := fl.Replica(i).FeatureStore().(*store.Cached); ok {
				cached.Refresh(ds.G)
			}
		}
		fl.ResetStats()
		fmt.Printf("warmed VIP cache with %d requests\n", len(warm))
	}
	fmt.Printf("serving %d requests over %s, %s, across %d replica(s) (%s routing)...\n",
		f.requests, stream, mode, f.replicas, f.routing)

	var apply func(src, dst []int32) (int, error)
	if f.dynamic {
		apply = func(src, dst []int32) (int, error) {
			n, _, err := fl.Update(src, dst)
			return n, err
		}
	}
	churn := newChurnRun(nil, apply, ds.G.N, f.churn, f.seed+77)
	var wall time.Duration
	if f.rate > 0 {
		arrival := serve.ArrivalUniform
		if f.poisson {
			arrival = serve.ArrivalPoisson
		}
		wall = serve.DriveOpenLoopProcess(fl, nodes, f.rate, f.requests, arrival, f.seed+5)
	} else {
		wall = serve.DriveClosedLoop(fl, nodes, 16, f.requests)
	}
	applied := churn.halt()

	st := fl.Stats()
	// A result-memo hit is answered at the router, so no replica counts it.
	answered := st.Served + st.Result.Hits
	fmt.Printf("\nserved     %d requests in %v (%.0f rps), %d rejected, %d shed (deadline %d, priority %d, capacity %d)\n",
		answered, wall.Round(time.Millisecond), float64(answered)/wall.Seconds(),
		st.Rejected, st.TotalSheds(), st.ShedDeadlines, st.ShedPriorities, st.ShedCapacities)
	fmt.Printf("latency    p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms\n",
		st.Latency.P50*1e3, st.Latency.P95*1e3, st.Latency.P99*1e3, st.Latency.Max*1e3)
	fmt.Printf("routing    %v answered per replica\n", st.Routed)
	if f.dynamic {
		// Every replica samples the one shared graph, so any replica's
		// compaction count is the graph's.
		fmt.Printf("graph      %d edge updates applied, final version %d, %d compactions\n",
			applied, st.MaxVersion, st.PerReplica[0].Compactions)
	}
	if f.resultRows > 0 {
		fmt.Printf("result memo  %d lookups, %d hits (%.0f%%), %d stale\n",
			st.Result.Lookups, st.Result.Hits, 100*st.Result.HitRate(), st.Result.Stale)
	}
	if st.CacheLookups+st.EmbLookups > 0 {
		fmt.Printf("caches     combined hit rate %.0f%% (feature %d/%d, embedding %d/%d)\n",
			100*st.CombinedCacheHitRate(), st.CacheHits, st.CacheLookups, st.EmbHits, st.EmbLookups)
	}
	for i, rs := range st.PerReplica {
		fmt.Printf("replica %d: %d batches (occupancy mean %.1f, p95 %.0f req/batch)",
			i, rs.Batches, rs.Occupancy.Mean, rs.Occupancy.P95)
		if perCache == 0 {
			fmt.Println()
			continue
		}
		fmt.Print(", ")
		printStoreStats(fl.Replica(i).FeatureStore())
	}
	if perCache == 0 {
		// Uncached replicas all gather through the one shared base store.
		printStoreStats(base)
	}
	return nil
}

// runGen materializes a preset dataset and writes it to a binary container.
func runGen(name string, scale float64, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: salient gen -dataset NAME -scale F <output-file>")
	}
	ds, err := dataset.Load(name, scale)
	if err != nil {
		return err
	}
	if err := ds.SaveFile(args[0]); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d nodes, %d edges, %d classes\n",
		args[0], ds.G.N, ds.G.NumEdges(), ds.NumClasses)
	return nil
}

// runStats prints dataset statistics, from a saved file when given one,
// otherwise from a freshly generated preset.
func runStats(name string, scale float64, args []string) error {
	var ds *dataset.Dataset
	var err error
	if len(args) == 1 {
		ds, err = dataset.LoadFile(args[0])
	} else {
		ds, err = dataset.Load(name, scale)
	}
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s\n", ds.Name)
	fmt.Printf("  nodes        %d\n", ds.G.N)
	fmt.Printf("  edges        %d (avg degree %.1f, max %d)\n",
		ds.G.NumEdges(), ds.G.AvgDegree(), ds.G.MaxDegree())
	fmt.Printf("  features     %d dims (half-precision host storage: %.1f MB)\n",
		ds.FeatDim, float64(len(ds.FeatHalf)*2)/(1<<20))
	fmt.Printf("  classes      %d\n", ds.NumClasses)
	fmt.Printf("  splits       train %d / val %d / test %d\n",
		len(ds.Train), len(ds.Val), len(ds.Test))
	hist := ds.G.DegreeHistogram()
	fmt.Printf("  degree histogram (log2 bins):")
	for i, c := range hist {
		if c > 0 {
			fmt.Printf(" [2^%d]=%d", i, c)
		}
	}
	fmt.Println()
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: salient <list|all|train|serve|gen|stats|exhibit-id> [flags]")
	fmt.Fprintln(os.Stderr, "paper exhibits:", bench.IDs())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "salient:", err)
	os.Exit(1)
}
