package fleet

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"salient/internal/dataset"
	"salient/internal/event"
	"salient/internal/graph"
	"salient/internal/nn"
	"salient/internal/serve"
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
	// from this Options value with its own store and (under Dynamic) its
	// own graph. Serve.Store and Serve.Graph must be nil — per-replica
	// isolation is the fleet's job, shared backends would break it.
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
	// MaxSkew bounds how many graph versions a replica may lag the fleet
	// watermark (the max replica version) before routing stops sending it
	// traffic — the staleness bound on answers during update fan-out.
	// 0 (default) is unbounded: any replica may answer.
	MaxSkew uint64
	// ResultRows enables the versioned result cache with the given
	// capacity: answers are memoized by (node, graph version) and served
	// without touching a replica while the fleet watermark still equals
	// the memoized version. 0 disables. Sound because serving is
	// deterministic per (node, version).
	ResultRows int
	// Dynamic gives every replica its own graph.Dynamic over the
	// dataset's graph, enabling Update/AddNode fan-out. Replicas apply
	// the same update stream, so their versions advance in lockstep
	// (skew appears only mid-fan-out or via direct per-replica updates).
	Dynamic bool
	// Seed keys the random-routing draw sequence. Default 1.
	Seed uint64
}

func (o *Options) normalize() error {
	if o.Replicas < 1 {
		o.Replicas = 1
	}
	if o.Serve.Store != nil {
		return errors.New("fleet: Serve.Store must be nil (each replica builds its own store)")
	}
	if o.Serve.Graph != nil {
		return errors.New("fleet: Serve.Graph must be nil (set Options.Dynamic for per-replica dynamic graphs)")
	}
	if o.PriorityLevels < 1 {
		o.PriorityLevels = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return nil
}

// replica is one fleet member: its server, its in-flight request count
// (the bounded-load signal) and its graph-version watermark (the skew
// signal, advanced by update fan-outs and by the versions its own answers
// report).
type replica struct {
	srv      *serve.Server
	dyn      *graph.Dynamic // nil when the fleet is static
	inflight atomic.Int64
	version  atomic.Uint64
}

// noteVersion raises the watermark to v (monotonic; racing writers keep
// the max).
func (r *replica) noteVersion(v uint64) {
	for {
		cur := r.version.Load()
		if v <= cur || r.version.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Fleet is a replicated serving front end over N in-process servers. It
// implements serve.Submitter, so every load driver that feeds a Server
// feeds a Fleet unchanged. Create with New, submit from any number of
// goroutines, Close when done.
type Fleet struct {
	opts    Options
	reps    []*replica
	ring    *Ring
	results *resultCache // nil when ResultRows == 0

	rr atomic.Uint64 // random-routing draw counter

	// updateMu serializes Update/AddNode fan-outs so two concurrent
	// writers cannot interleave per-replica application orders (which
	// would make replica states diverge).
	updateMu sync.Mutex

	statsMu sync.Mutex
	latency event.Recorder        // fleet-level submit->answer latency, seconds
	sheds   [numShedReasons]int64 // router admission refusals by reason
	routed  []int64               // successful answers per replica
}

// New builds a fleet of opts.Replicas servers over ds, one model per
// replica (models[i] is replica i's — replicas must not share a model, its
// forward scratch is serialized per server). Use Replicate to clone a
// trained model fleet-wide.
func New(ds *dataset.Dataset, opts Options, models ...nn.Model) (*Fleet, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if len(models) != opts.Replicas {
		return nil, fmt.Errorf("fleet: %d replicas need %d models, got %d", opts.Replicas, opts.Replicas, len(models))
	}
	for i, m := range models {
		for j := i + 1; j < len(models); j++ {
			if m == models[j] {
				return nil, fmt.Errorf("fleet: replicas %d and %d share a model (forwards would contend; use Replicate)", i, j)
			}
		}
	}
	f := &Fleet{
		opts:    opts,
		ring:    NewRing(opts.VNodes),
		results: newResultCache(opts.ResultRows),
		routed:  make([]int64, opts.Replicas),
	}
	for i := 0; i < opts.Replicas; i++ {
		sopts := opts.Serve
		rep := &replica{}
		if opts.Dynamic {
			dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{})
			if err != nil {
				f.closeReplicas()
				return nil, fmt.Errorf("fleet: replica %d graph: %w", i, err)
			}
			rep.dyn = dyn
			sopts.Graph = dyn
		}
		srv, err := serve.New(models[i], ds, sopts)
		if err != nil {
			f.closeReplicas()
			return nil, fmt.Errorf("fleet: replica %d: %w", i, err)
		}
		rep.srv = srv
		f.reps = append(f.reps, rep)
		if err := f.ring.Add(i); err != nil {
			f.closeReplicas()
			return nil, err
		}
	}
	return f, nil
}

// Replicate builds n models with build and copies src's trained state
// (parameters and stat buffers) into each — the fleet-construction helper:
// build must construct the same architecture/config src was trained with
// (e.g. a train.NewModel closure).
func Replicate(src nn.Model, n int, build func() (nn.Model, error)) ([]nn.Model, error) {
	out := make([]nn.Model, n)
	for i := range out {
		m, err := build()
		if err != nil {
			return nil, fmt.Errorf("fleet: replicate model %d: %w", i, err)
		}
		if err := nn.CopyState(m, src); err != nil {
			return nil, fmt.Errorf("fleet: replicate model %d: %w", i, err)
		}
		out[i] = m
	}
	return out, nil
}

// NumReplicas returns the fleet size.
func (f *Fleet) NumReplicas() int { return len(f.reps) }

// Replica exposes replica i's server (tests and monitoring; production
// traffic goes through Submit/Predict so routing and admission apply).
func (f *Fleet) Replica(i int) *serve.Server { return f.reps[i].srv }

// Submit requests a prediction for node through the router and blocks for
// the label — the serve.Submitter method, QoS-free (no deadline, lowest
// priority).
func (f *Fleet) Submit(node int32) (int32, error) {
	p, err := f.PredictReq(serve.Request{Node: node})
	return p.Label, err
}

// Predict is Submit with the snapshot-version report.
func (f *Fleet) Predict(node int32) (serve.Prediction, error) {
	return f.PredictReq(serve.Request{Node: node})
}

// PredictReq answers one request end to end: result-cache probe, routing
// (affinity or random, skew-filtered, load-bounded), admission (deadline
// feasibility against the replica's live p95, priority versus queue
// occupancy), then the replica's own deadline-checked execution. Refusals
// are *ShedError with the reason; replica-level failures pass through
// (capacity saturations wrapped with their reason).
func (f *Fleet) PredictReq(r serve.Request) (serve.Prediction, error) {
	start := time.Now()
	maxV := f.maxVersion()
	if f.results != nil {
		if label, ok := f.results.Get(r.Node, maxV); ok {
			f.statsMu.Lock()
			f.latency.Add(time.Since(start).Seconds())
			f.statsMu.Unlock()
			return serve.Prediction{Label: label, Version: maxV}, nil
		}
	}
	idx := f.route(r.Node, maxV)
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
	rep.noteVersion(p.Version)
	if f.results != nil {
		f.results.Put(r.Node, p.Label, p.Version)
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

// route picks the replica for node given the current fleet watermark.
// Hash routing walks the ring from node's home, skipping replicas lagging
// past MaxSkew and (under LoadFactor) replicas over the load bound;
// random routing draws a deterministic counter-keyed replica, rotated
// past lagging ones. Falls back to the first skew-eligible replica (all
// over bound), then to the home (transient all-lagging race) — routing
// never fails outright, admission decides the rest.
func (f *Fleet) route(node int32, maxV uint64) int {
	n := len(f.reps)
	if n == 1 {
		return 0
	}
	eligible := func(i int) bool {
		if f.opts.MaxSkew == 0 {
			return true
		}
		return maxV-f.reps[i].version.Load() <= f.opts.MaxSkew
	}
	if f.opts.Routing == RouteRandom {
		h := splitmix64(f.opts.Seed ^ f.rr.Add(1))
		for i := 0; i < n; i++ {
			if c := int((h + uint64(i)) % uint64(n)); eligible(c) {
				return c
			}
		}
		return int(h % uint64(n))
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
	chosen, fallback := -1, -1
	f.ring.Walk(key, func(i int) bool {
		if !eligible(i) {
			return false
		}
		if fallback < 0 {
			fallback = i
		}
		if f.reps[i].inflight.Load() < bound {
			chosen = i
			return true
		}
		return false
	})
	if chosen >= 0 {
		return chosen
	}
	if fallback >= 0 {
		return fallback
	}
	return f.ring.Home(key)
}

func (f *Fleet) countShed(r ShedReason) {
	f.statsMu.Lock()
	f.sheds[r]++
	f.statsMu.Unlock()
}

// maxVersion returns the fleet watermark: the highest graph version any
// replica is known to have reached.
func (f *Fleet) maxVersion() uint64 {
	var max uint64
	for _, rep := range f.reps {
		if v := rep.version.Load(); v > max {
			max = v
		}
	}
	return max
}

// RefreshVersions re-reads every dynamic replica's live graph version into
// its watermark — the poll tests and monitors use after mutating a replica
// directly (normal fan-out and answered predictions keep the watermarks
// fresh on their own).
func (f *Fleet) RefreshVersions() {
	for _, rep := range f.reps {
		if rep.dyn != nil {
			rep.noteVersion(rep.dyn.Version())
		}
	}
}

// Update fans a batch of edge insertions out to every replica's graph in
// replica order and returns the applied count and the fleet's new
// watermark. Replicas apply identical streams (fan-outs are serialized),
// so their applied counts and versions agree; a replica error aborts the
// fan-out mid-way — the version watermark then reflects the skew, and
// MaxSkew routing keeps answers within bound while the caller retries.
// Stale memoized results below the new watermark are swept eagerly.
func (f *Fleet) Update(src, dst []int32) (int, uint64, error) {
	f.updateMu.Lock()
	defer f.updateMu.Unlock()
	applied, maxVer := 0, uint64(0)
	for i, rep := range f.reps {
		a, v, err := rep.srv.Update(src, dst)
		if err != nil {
			return 0, f.maxVersion(), fmt.Errorf("fleet: replica %d update: %w", i, err)
		}
		rep.noteVersion(v)
		if i == 0 {
			applied = a
		}
		if v > maxVer {
			maxVer = v
		}
	}
	if f.results != nil {
		f.results.InvalidateBelow(maxVer)
	}
	return applied, maxVer, nil
}

// AddNode fans one node insertion out to every replica (each appends the
// feature row to its own store and grows its own graph) and returns the
// new node ID — identical on every replica, enforced — plus the new
// watermark.
func (f *Fleet) AddNode(feat []float32, label int32, neighbors []int32) (int32, uint64, error) {
	f.updateMu.Lock()
	defer f.updateMu.Unlock()
	var id int32
	var maxVer uint64
	for i, rep := range f.reps {
		nid, v, err := rep.srv.AddNode(feat, label, neighbors)
		if err != nil {
			return 0, f.maxVersion(), fmt.Errorf("fleet: replica %d addnode: %w", i, err)
		}
		if i == 0 {
			id = nid
		} else if nid != id {
			return 0, f.maxVersion(), fmt.Errorf("fleet: replica %d assigned node %d, replica 0 assigned %d (replica states diverged)", i, nid, id)
		}
		rep.noteVersion(v)
		if v > maxVer {
			maxVer = v
		}
	}
	if f.results != nil {
		f.results.InvalidateBelow(maxVer)
	}
	return id, maxVer, nil
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

// ResultCacheLen returns the number of memoized answers (0 when the
// result cache is disabled).
func (f *Fleet) ResultCacheLen() int {
	if f.results == nil {
		return 0
	}
	return f.results.Len()
}

// ResetStats zeroes the fleet's own counters, the result cache's traffic
// counters, and every replica's stats — the warm-up/measure seam. Cached
// rows, memoized results and version watermarks stay.
func (f *Fleet) ResetStats() {
	f.statsMu.Lock()
	f.latency = event.Recorder{}
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
