package fleet

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"salient/internal/dataset"
	"salient/internal/embcache"
	"salient/internal/event"
	"salient/internal/graph"
	"salient/internal/nn"
	"salient/internal/serve"
	"salient/internal/store"
)

// Routing selects how the router picks a replica for a request.
type Routing int

const (
	// RouteHash is consistent-hash affinity: node v always lands on the
	// ring replica owning hash(v) (spilling to successors only under the
	// bounded-load rule), so each replica's VIP feature cache and
	// historical-embedding cache see a stable slice of the key space and
	// stay hot on it. This is the default.
	RouteHash Routing = iota
	// RouteRandom scatters requests uniformly across replicas — the
	// affinity-free baseline hash routing is tested against: every
	// replica's caches see the whole key space diluted N ways.
	RouteRandom
)

func (r Routing) String() string {
	if r == RouteRandom {
		return "random"
	}
	return "hash"
}

// ParseRouting maps a flag-style name onto a Routing: "hash" (or empty)
// and "random".
func ParseRouting(s string) (Routing, error) {
	switch s {
	case "", "hash":
		return RouteHash, nil
	case "random":
		return RouteRandom, nil
	}
	return 0, fmt.Errorf("fleet: unknown routing %q (want hash or random)", s)
}

// Options configures a Fleet.
type Options struct {
	// Replicas is the fleet size. Default 1 (a fleet of one is
	// bit-identical to the bare server it wraps).
	Replicas int
	// Serve is the per-replica server template: every replica is built
	// from this Options value over the fleet's one base store and (under
	// Dynamic) its one graph. Serve.Store, when set, is that base store;
	// nil selects store.NewFlat over the dataset. AddNode needs a base
	// that can append rows. Serve.Graph must be nil: set Dynamic for the
	// shared graph. CacheRows gives each replica its own feature cache
	// over the shared base.
	Serve serve.Options
	// Routing selects the routing policy. Default RouteHash.
	Routing Routing
	// VNodes is the consistent-hash ring's virtual nodes per replica;
	// <= 0 selects DefaultVNodes.
	VNodes int
	// LoadFactor > 1 enables consistent hashing with bounded loads: a
	// request spills past its home replica to the next ring successor
	// whenever the home's in-flight count exceeds
	// ceil(LoadFactor * (totalInflight+1) / Replicas) — the classic
	// c-bound that caps hot-key pileups at a c× share of the load while
	// keeping all other keys on their home. <= 1 (default) disables
	// spilling: affinity is absolute.
	LoadFactor float64
	// PriorityLevels > 1 enables priority admission: request priority p
	// (clamped to PriorityLevels-1) is admitted at a replica only while
	// its queue occupancy is under (p+1)/PriorityLevels of capacity, so
	// as the queue fills the lowest priorities shed first and the top
	// priority retains the full queue. Default 1: no priority shedding,
	// matching the bare server.
	PriorityLevels int
	// ResultRows enables the result memo with the given capacity: answers
	// are memoized by (node, graph version) and served without touching a
	// replica while the graph's version still equals the memoized version.
	// 0 disables. Sound because serving is deterministic per (node,
	// version).
	ResultRows int
	// Dynamic builds one graph.Dynamic over the dataset's graph, shared by
	// every replica, enabling Update/AddNode. A write is applied once and
	// every replica's next micro-batch pins a snapshot that includes it.
	Dynamic bool
	// Seed keys the random-routing draw sequence. Default 1.
	Seed uint64
}

func (o *Options) normalize() error {
	if o.Replicas < 1 {
		o.Replicas = 1
	}
	if o.Serve.Graph != nil {
		return errors.New("fleet: Serve.Graph must be nil (set Options.Dynamic for a shared dynamic graph)")
	}
	if o.PriorityLevels < 1 {
		o.PriorityLevels = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return nil
}

// replica is one fleet member: its server and its in-flight request count
// (the bounded-load signal).
type replica struct {
	srv      *serve.Server
	inflight atomic.Int64
}

// Fleet is a replicated serving front end over N in-process servers that
// share one base feature store and (under Dynamic) one graph. Its one
// request entry point is PredictReq, so it implements serve.Submitter and
// every load driver that feeds a Server feeds a Fleet unchanged. Create
// with New, call PredictReq from any number of goroutines, Close when done.
type Fleet struct {
	opts    Options
	reps    []*replica
	ring    *Ring
	results *embcache.Cache[int32] // label memo; nil when ResultRows == 0
	base    store.FeatureStore     // the feature rows every replica gathers from
	dyn     *graph.Dynamic         // the shared graph; nil when the fleet is static

	rr atomic.Uint64 // random-routing draw counter

	statsMu sync.Mutex
	latency event.Hist            // fleet-level submit->answer latency, seconds
	sheds   [numShedReasons]int64 // router admission refusals by reason
	routed  []int64               // successful answers per replica
}

// New builds a fleet of opts.Replicas servers over ds; models[i] is
// replica i's model. Eval forwards write no model state, so every replica
// may serve the same model, as it shares the graph and the base store.
func New(ds *dataset.Dataset, opts Options, models ...nn.Model) (*Fleet, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if len(models) != opts.Replicas {
		return nil, fmt.Errorf("fleet: %d replicas need %d models, got %d", opts.Replicas, opts.Replicas, len(models))
	}
	f := &Fleet{
		opts:   opts,
		ring:   NewRing(opts.VNodes),
		base:   opts.Serve.Store,
		routed: make([]int64, opts.Replicas),
	}
	if f.base == nil {
		f.base = store.NewFlat(ds)
	}
	if opts.ResultRows > 0 {
		results, err := embcache.New[int32](opts.ResultRows)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		f.results = results
	}
	sopts := opts.Serve
	sopts.Store = f.base
	if opts.Dynamic {
		dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{})
		if err != nil {
			return nil, fmt.Errorf("fleet: graph: %w", err)
		}
		f.dyn = dyn
		sopts.Graph = dyn
	}
	for i := 0; i < opts.Replicas; i++ {
		srv, err := serve.New(models[i], ds, sopts)
		if err != nil {
			f.closeReplicas()
			return nil, fmt.Errorf("fleet: replica %d: %w", i, err)
		}
		f.reps = append(f.reps, &replica{srv: srv})
		if err := f.ring.Add(i); err != nil {
			f.closeReplicas()
			return nil, err
		}
	}
	return f, nil
}

// Replicate returns src n times; build is never called.
//
// Deprecated: replicas share one model, so pass it to New once per replica.
func Replicate(src nn.Model, n int, build func() (nn.Model, error)) ([]nn.Model, error) {
	out := make([]nn.Model, n)
	for i := range out {
		out[i] = src
	}
	return out, nil
}

// NumReplicas returns the fleet size.
func (f *Fleet) NumReplicas() int { return len(f.reps) }

// Replica exposes replica i's server (tests and monitoring; production
// traffic goes through PredictReq so routing and admission apply).
func (f *Fleet) Replica(i int) *serve.Server { return f.reps[i].srv }

// Predict is PredictReq for a node with no deadline and the lowest
// priority. It remains only because the benchmark's serving workload
// (perfbench/servework.go) calls it; it goes when that workload next
// changes.
func (f *Fleet) Predict(node int32) (serve.Prediction, error) {
	return f.PredictReq(serve.Request{Node: node})
}

// PredictReq answers one request end to end: result-memo probe, routing
// (affinity or random, load-bounded), admission (deadline
// feasibility against the replica's live p95, priority versus queue
// occupancy), then the replica's own deadline-checked execution. Refusals
// are *ShedError with the reason; replica-level failures pass through
// (capacity saturations wrapped with their reason).
func (f *Fleet) PredictReq(r serve.Request) (serve.Prediction, error) {
	start := time.Now()
	if f.results != nil {
		v := f.version()
		var label [1]int32
		if f.results.Lookup(r.Node, v, v, label[:]) {
			f.statsMu.Lock()
			f.latency.Add(time.Since(start).Seconds())
			f.statsMu.Unlock()
			return serve.Prediction{Label: label[0], Version: v}, nil
		}
	}
	idx := f.route(r.Node)
	rep := f.reps[idx]
	if !r.Deadline.IsZero() {
		if est := rep.srv.EstimateServiceTime(); est > 0 {
			if remaining := time.Until(r.Deadline); remaining < est {
				f.countShed(ShedDeadline)
				return serve.Prediction{}, &ShedError{
					Reason: ShedDeadline, Replica: idx,
					Remaining: remaining, Estimate: est, Err: ErrShedDeadline,
				}
			}
		}
	}
	if lv := f.opts.PriorityLevels; lv > 1 {
		if !admitPriority(rep.srv.QueueDepth(), rep.srv.QueueCap(), lv, int(r.Priority)) {
			f.countShed(ShedPriority)
			return serve.Prediction{}, shedErr(ShedPriority, idx)
		}
	}
	rep.inflight.Add(1)
	p, err := rep.srv.PredictReq(r)
	rep.inflight.Add(-1)
	if err != nil {
		if errors.Is(err, serve.ErrSaturated) {
			f.countShed(ShedCapacity)
			return p, &ShedError{Reason: ShedCapacity, Replica: idx, Err: err}
		}
		return p, err
	}
	if f.results != nil {
		_ = f.results.Put(r.Node, p.Version, []int32{p.Label}) // width is always 1
	}
	f.statsMu.Lock()
	f.routed[idx]++
	f.latency.Add(time.Since(start).Seconds())
	f.statsMu.Unlock()
	return p, nil
}

// admitPriority decides priority admission: priority p (clamped to
// levels-1) is admitted only while queue occupancy is under
// (p+1)/levels of capacity — as the queue fills, the lowest priority
// sheds first (at 1/levels occupancy) and each higher level holds on
// proportionally longer. The top priority is always admitted: for it the
// threshold degenerates to "queue full", which is the server's own
// ErrSaturated — a capacity condition, not a priority one — so leaving it
// to the server keeps the shed taxonomy honest.
func admitPriority(depth, qcap, levels, pri int) bool {
	if pri >= levels-1 {
		return true
	}
	if pri < 0 {
		pri = 0
	}
	return depth*levels < qcap*(pri+1)
}

// route picks the replica for node. Hash routing walks the ring from
// node's home, skipping (under LoadFactor) replicas over the load bound,
// and falls back to the home when every replica is over it — routing
// never fails outright, admission decides the rest. Random routing draws
// a deterministic counter-keyed replica.
func (f *Fleet) route(node int32) int {
	n := len(f.reps)
	if n == 1 {
		return 0
	}
	if f.opts.Routing == RouteRandom {
		return int(splitmix64(f.opts.Seed^f.rr.Add(1)) % uint64(n))
	}
	key := keyHash(node)
	bound := int64(math.MaxInt64)
	if f.opts.LoadFactor > 1 {
		var total int64
		for _, rep := range f.reps {
			total += rep.inflight.Load()
		}
		bound = int64(math.Ceil(f.opts.LoadFactor * float64(total+1) / float64(n)))
	}
	chosen := -1
	f.ring.Walk(key, func(i int) bool {
		if f.reps[i].inflight.Load() < bound {
			chosen = i
			return true
		}
		return false
	})
	if chosen >= 0 {
		return chosen
	}
	return f.ring.Home(key)
}

func (f *Fleet) countShed(r ShedReason) {
	f.statsMu.Lock()
	f.sheds[r]++
	f.statsMu.Unlock()
}

// version returns the shared graph's latest version (0 for a static
// fleet). Dynamic.Version takes the graph mutex, so reads call it only
// when the result memo needs it.
func (f *Fleet) version() uint64 {
	if f.dyn == nil {
		return 0
	}
	return f.dyn.Version()
}

// Update applies a batch of edge insertions to the shared graph once and
// returns the applied count and the new version; every replica's next
// micro-batch sees the edges, and memoized results below the new version
// can no longer hit.
func (f *Fleet) Update(src, dst []int32) (int, uint64, error) {
	return f.reps[0].srv.Update(src, dst)
}

// AddNode appends one node to the shared store and graph and returns its
// ID, answerable on every replica, plus the new version. Every fleet write
// goes through replica 0's server, whose write lock keeps feature row and
// node IDs aligned; a base store that cannot append fails the call.
func (f *Fleet) AddNode(feat []float32, label int32, neighbors []int32) (int32, uint64, error) {
	return f.reps[0].srv.AddNode(feat, label, neighbors)
}

// Close shuts every replica down (draining their queues).
func (f *Fleet) Close() { f.closeReplicas() }

func (f *Fleet) closeReplicas() {
	for _, rep := range f.reps {
		if rep.srv != nil {
			rep.srv.Close()
		}
	}
}

// ResetStats zeroes the fleet's own counters, the result memo's traffic
// counters, and every replica's stats — the warm-up/measure seam. Cached
// rows and memoized results stay.
func (f *Fleet) ResetStats() {
	f.statsMu.Lock()
	f.latency.Reset()
	f.sheds = [numShedReasons]int64{}
	for i := range f.routed {
		f.routed[i] = 0
	}
	f.statsMu.Unlock()
	if f.results != nil {
		f.results.ResetStats()
	}
	for _, rep := range f.reps {
		rep.srv.ResetStats()
	}
}
