package main

import (
	"flag"
	"fmt"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/fleet"
	"salient/internal/half"
	"salient/internal/store"
)

// cliFlags holds every parsed flag value so subcommand validation sees one
// struct instead of a pile of pointers.
type cliFlags struct {
	seed        uint64
	full        bool
	allRows     bool
	tracePrefix string
	arch        string
	dataset     string
	scale       float64
	epochs      int
	executor    string
	replicas    int
	workers     int
	storeKind   string
	precision   string
	prec        half.Precision
	fused       bool
	parts       int
	placement   string
	transport   string
	hosts       int
	rate        float64
	requests    int
	maxBatch    int
	cacheFrac   float64
	cachePolicy string
	policy      cache.Policy
	embRows     int
	embStale    uint64
	zipf        float64
	poisson     bool
	dynamic     bool
	churn       float64
	routing     string
	routePolicy fleet.Routing
	resultRows  int
}

// register wires every CLI flag onto fs — the one place the flag set is
// defined, shared by every subcommand.
func (f *cliFlags) register(fs *flag.FlagSet) {
	fs.Uint64Var(&f.seed, "seed", 1, "simulation seed")
	fs.BoolVar(&f.full, "full", false, "thorough accuracy preset")
	fs.BoolVar(&f.allRows, "all", false, "fig2 only: full scatter")
	fs.StringVar(&f.tracePrefix, "trace", "", "fig1 only: write Chrome trace JSON files with this path prefix")
	fs.StringVar(&f.arch, "arch", "SAGE", "architecture for train")
	fs.StringVar(&f.dataset, "dataset", "arxiv", "dataset for train")
	fs.Float64Var(&f.scale, "scale", 0.3, "dataset scale for train")
	fs.IntVar(&f.epochs, "epochs", 5, "epochs for train")
	fs.StringVar(&f.executor, "executor", "salient", "batch-prep executor: salient|pyg")
	fs.IntVar(&f.replicas, "replicas", 1, "train: data-parallel replica count; serve: serving replica count")
	fs.IntVar(&f.workers, "workers", 4, "preparation workers")
	fs.StringVar(&f.storeKind, "store", "", "feature store: flat|sharded|cached|sharded+cached (empty = subcommand default)")
	fs.StringVar(&f.precision, "precision", "fp16", "feature storage precision: fp16|fp32|int8")
	fs.BoolVar(&f.fused, "fused", false, "train: fused gather+aggregate pipeline (SAGE/GIN, salient executor)")
	fs.IntVar(&f.parts, "parts", 4, "shard count for -store sharded")
	fs.StringVar(&f.placement, "placement", "ldg", "shard placement: ldg|random")
	fs.StringVar(&f.transport, "transport", "", "train: distributed data plane: loopback|tcp (requires -replicas > 1)")
	fs.IntVar(&f.hosts, "hosts", 0, "train with -transport: partition/host count (default: -replicas)")
	fs.Float64Var(&f.rate, "rate", 0, "serve: offered rps (0 = closed loop)")
	fs.IntVar(&f.requests, "requests", 4000, "serve: request count")
	fs.IntVar(&f.maxBatch, "maxbatch", 32, "serve: micro-batch cap")
	fs.Float64Var(&f.cacheFrac, "cachefrac", 0.2, "feature cache fraction of N")
	fs.StringVar(&f.cachePolicy, "cachepolicy", "degree", "feature cache placement: degree|vip (-transport mirrors: degree only)")
	fs.IntVar(&f.embRows, "embrows", 0, "serve: historical layer-embedding cache rows (0 = reuse off)")
	fs.Uint64Var(&f.embStale, "embstale", 1, "serve: embedding reuse staleness window, graph versions (0 = never reuse)")
	fs.Float64Var(&f.zipf, "zipf", 0, "serve: Zipf skew of request popularity (0 = cycle the test split)")
	fs.BoolVar(&f.poisson, "poisson", false, "serve: Poisson arrivals for open-loop -rate (default fixed-interval)")
	fs.BoolVar(&f.dynamic, "dynamic", false, "train/serve over a mutable dynamic graph")
	fs.Float64Var(&f.churn, "churn", 0, "with -dynamic: edge updates/sec streamed during the run")
	fs.StringVar(&f.routing, "routing", "hash", "serve: request routing across replicas: hash|random")
	fs.IntVar(&f.resultRows, "resultrows", 0, "serve: versioned result-memo rows (0 = off)")
}

// oneOf reports whether v is among the allowed values.
func oneOf(v string, allowed ...string) bool {
	for _, a := range allowed {
		if v == a {
			return true
		}
	}
	return false
}

// distributed reports whether the run uses the multi-host data plane.
func (f *cliFlags) distributed() bool { return f.transport != "" }

// validate rejects out-of-domain flag values for the subcommands that read
// them, so a typo fails loudly instead of running with defaults.
func (f *cliFlags) validate(cmd string) error {
	// Each exhibit flag is read by one experiment; anywhere else, `all`
	// included, it would be silently ignored.
	if f.tracePrefix != "" && cmd != "fig1" {
		return fmt.Errorf("-trace applies to fig1 only")
	}
	if f.allRows && cmd != "fig2" {
		return fmt.Errorf("-all applies to fig2 only")
	}
	switch cmd {
	case "train", "serve", "gen", "stats":
		if !oneOf(f.dataset, dataset.Arxiv, dataset.Products, dataset.Papers) {
			return fmt.Errorf("unknown -dataset %q (want arxiv, products, or papers)", f.dataset)
		}
		if f.scale <= 0 {
			return fmt.Errorf("-scale must be > 0, got %g", f.scale)
		}
	}
	switch cmd {
	case "train", "serve":
		if !oneOf(f.arch, "SAGE", "GAT", "GIN", "SAGE-RI") {
			return fmt.Errorf("unknown -arch %q (want SAGE, GAT, GIN, or SAGE-RI)", f.arch)
		}
		if f.epochs < 1 {
			return fmt.Errorf("-epochs must be >= 1, got %d", f.epochs)
		}
		if f.workers < 1 {
			return fmt.Errorf("-workers must be >= 1, got %d", f.workers)
		}
		if f.replicas < 1 {
			return fmt.Errorf("-replicas must be >= 1, got %d", f.replicas)
		}
		if !store.ValidKind(f.storeKind) {
			return fmt.Errorf("unknown -store %q (want flat, sharded, cached, or sharded+cached)", f.storeKind)
		}
		prec, err := half.ParsePrecision(f.precision)
		if err != nil {
			return err
		}
		f.prec = prec
		if f.parts < 1 {
			return fmt.Errorf("-parts must be >= 1, got %d", f.parts)
		}
		if !store.ValidPlacement(f.placement) {
			return fmt.Errorf("unknown -placement %q (want ldg or random)", f.placement)
		}
		if f.cacheFrac < 0 || f.cacheFrac > 1 {
			return fmt.Errorf("-cachefrac must be in [0,1], got %g", f.cacheFrac)
		}
		policy, err := cache.ParsePolicy(f.cachePolicy)
		if err != nil {
			return err
		}
		f.policy = policy
		// An explicitly requested cache layer needs a nonzero size; a
		// zero-row cache would otherwise round into a silent default.
		if oneOf(f.storeKind, "cached", "sharded+cached") && f.cacheFrac == 0 {
			return fmt.Errorf("-store %s requires -cachefrac > 0", f.storeKind)
		}
		if f.churn < 0 {
			return fmt.Errorf("-churn must be >= 0, got %g", f.churn)
		}
		if f.churn > 0 && !f.dynamic {
			return fmt.Errorf("-churn %g requires -dynamic", f.churn)
		}
	}
	if cmd == "train" {
		if !oneOf(f.executor, "salient", "pyg") {
			return fmt.Errorf("unknown -executor %q (want salient or pyg)", f.executor)
		}
		if f.fused {
			if !oneOf(f.arch, "SAGE", "GIN") {
				return fmt.Errorf("-fused requires -arch SAGE or GIN (%s has no mean/sum first layer)", f.arch)
			}
			if f.executor != "salient" {
				return fmt.Errorf("-fused requires -executor salient")
			}
		}
		if err := f.validateDistributed(); err != nil {
			return err
		}
	} else if f.distributed() || f.hosts != 0 {
		return fmt.Errorf("-transport/-hosts apply to train only")
	}
	if cmd == "serve" {
		if f.fused {
			return fmt.Errorf("-fused applies to train only")
		}
		if f.rate < 0 {
			return fmt.Errorf("-rate must be >= 0, got %g", f.rate)
		}
		if f.requests < 1 {
			return fmt.Errorf("-requests must be >= 1, got %d", f.requests)
		}
		if f.maxBatch < 1 {
			return fmt.Errorf("-maxbatch must be >= 1, got %d", f.maxBatch)
		}
		if f.embRows < 0 {
			return fmt.Errorf("-embrows must be >= 0, got %d", f.embRows)
		}
		if f.embRows > 0 && !oneOf(f.arch, "SAGE", "GIN") {
			return fmt.Errorf("-embrows requires -arch SAGE or GIN (resumable forward)")
		}
		if f.zipf < 0 {
			return fmt.Errorf("-zipf must be >= 0, got %g", f.zipf)
		}
		if f.poisson && f.rate <= 0 {
			return fmt.Errorf("-poisson requires an open loop (-rate > 0)")
		}
		pol, err := fleet.ParseRouting(f.routing)
		if err != nil {
			return err
		}
		f.routePolicy = pol
		if f.resultRows < 0 {
			return fmt.Errorf("-resultrows must be >= 0, got %d", f.resultRows)
		}
	} else if f.resultRows != 0 {
		return fmt.Errorf("-resultrows applies to serve only")
	}
	return nil
}

// validateDistributed checks the -transport/-hosts combination: each replica
// owns one partition and trains through a remote store, so the host count is
// the replica count, the store layout and its degree-warmed mirror are the
// cluster's, and the fused and dynamic-graph paths (which need local
// stores/mutable topology) stay off.
func (f *cliFlags) validateDistributed() error {
	if !f.distributed() {
		if f.hosts != 0 {
			return fmt.Errorf("-hosts requires -transport loopback or tcp")
		}
		return nil
	}
	if !oneOf(f.transport, "loopback", "tcp") {
		return fmt.Errorf("unknown -transport %q (want loopback or tcp)", f.transport)
	}
	if f.replicas < 2 {
		return fmt.Errorf("-transport %s requires -replicas >= 2 (each replica owns one partition)", f.transport)
	}
	if f.hosts == 0 {
		f.hosts = f.replicas
	}
	if f.hosts != f.replicas {
		return fmt.Errorf("-hosts %d must equal -replicas %d (one partition per replica)", f.hosts, f.replicas)
	}
	if f.storeKind != "" && f.storeKind != "flat" {
		return fmt.Errorf("-transport %s builds each replica's remote store itself; drop -store %s", f.transport, f.storeKind)
	}
	if f.fused {
		return fmt.Errorf("-fused is not supported with -transport (remote stores have no fused gather)")
	}
	if f.dynamic {
		return fmt.Errorf("-dynamic is not supported with -transport (partitioned views are pinned)")
	}
	if f.policy != cache.StaticDegree {
		return fmt.Errorf("-transport %s warms each host's mirror by degree; drop -cachepolicy %s", f.transport, f.cachePolicy)
	}
	return nil
}

// resolveStore fills the per-subcommand default store kind: train reads
// flat unless told otherwise; serve keeps its historical default of a
// degree cache sized by -cachefrac.
func (f *cliFlags) resolveStore(cmd string) {
	if f.storeKind != "" {
		return
	}
	if cmd == "serve" && f.cacheFrac > 0 {
		f.storeKind = "cached"
		return
	}
	f.storeKind = "flat"
}

// cacheRows sizes the cache/mirror layer from -cachefrac, never rounded
// down to zero when the fraction is positive.
func (f *cliFlags) cacheRows(n int32) int {
	rows := int(float64(n) * f.cacheFrac)
	if rows < 1 && f.cacheFrac > 0 {
		rows = 1
	}
	return rows
}

// buildStore composes the feature store the -store/-parts/-placement flags
// describe over ds.
func buildStore(ds *dataset.Dataset, f cliFlags) (store.FeatureStore, error) {
	rows := f.cacheRows(ds.G.N)
	if rows < 1 {
		rows = 1
	}
	return store.Build(ds, store.Spec{
		Kind:        f.storeKind,
		Precision:   f.prec,
		Parts:       f.parts,
		Placement:   f.placement,
		CacheRows:   rows,
		CachePolicy: f.policy,
		Seed:        f.seed,
	})
}
