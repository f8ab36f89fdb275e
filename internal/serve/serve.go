// Package serve is the online inference layer: a request server built on
// SALIENT's batch-preparation data path (paper §5's argument that sampled
// inference reuses the training pipeline, taken to its serving conclusion).
//
// Clients call PredictReq with a Request for one node and block for its
// predicted label. Internally, requests land in a bounded admission channel;
// whichever worker goroutine is idle receives a request plus whatever is
// already queued behind it, up to MaxBatch, and never waits for more —
// requests that arrive during an execution form the next micro-batch, so a
// backlog still coalesces while a closed loop pays no batching window. Each
// micro-batch runs one fused prepare-and-forward over the coalesced set:
// per-request neighborhood sampling straight into the worker's recycled MFG
// slots (SampleInto — no per-request copies), a block-diagonal MFG merge
// (mfg.Merge), one gather through the feature store (internal/store) into
// the worker's pinned staging buffer, and one model forward. All of that
// scratch is released for reuse as soon as the micro-batch's responses are
// delivered. The forward runs in eval mode, which writes no model state, so
// workers run theirs concurrently through one model, and several servers may
// share that model too. Transfer and cache accounting live in the store; the
// server just snapshots them into its Stats.
//
// Determinism: each request is sampled independently with the RNG a
// singleton inference epoch would use (prep.BatchRNG(seed, 0)), and the
// merged forward is row-for-row equal to singleton forwards, so the answer
// for a node never depends on which requests it happened to share a
// micro-batch with — the answer for v always equals one-shot
// infer.Sampled on {v}.
//
// Backpressure: the channel is the admission bound. When it is full,
// PredictReq fails fast with ErrSaturated instead of queueing unbounded
// work, so saturation degrades into rejections rather than latency collapse
// or deadlock.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/embcache"
	"salient/internal/event"
	"salient/internal/graph"
	"salient/internal/mfg"
	"salient/internal/nn"
	"salient/internal/prep"
	"salient/internal/rng"
	"salient/internal/sampler"
	"salient/internal/slicing"
	"salient/internal/store"
	"salient/internal/tensor"
)

// ErrSaturated is returned by PredictReq when the admission queue is full:
// the server is at capacity and the caller should back off or shed the
// request.
var ErrSaturated = errors.New("serve: server saturated, request rejected")

// ErrClosed is returned by PredictReq after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrDeadline is returned (wrapped in a *RequestError) for a request whose
// deadline expired before its micro-batch executed: the answer could not
// have been useful, so the server sheds the work instead of computing it.
var ErrDeadline = errors.New("serve: deadline expired before execution")

// ErrStaticGraph is returned by the update APIs (Update, AddNode) when the
// server was built without a dynamic graph (Options.Graph).
var ErrStaticGraph = errors.New("serve: server has no dynamic graph (set Options.Graph)")

// Options configures a Server.
type Options struct {
	// Fanouts are the per-layer inference fanouts (Table 6). Required, and
	// must match the model's layer count.
	Fanouts []int
	// Workers is the number of batching workers pulling from the admission
	// channel. Default 2.
	Workers int
	// MaxBatch caps how many requests one micro-batch coalesces. Default 64.
	MaxBatch int
	// Deprecated: MaxDelay is ignored. A worker closes a micro-batch as soon
	// as the admission channel is empty and never waits for more requests.
	MaxDelay time.Duration
	// QueueCapacity is the admission bound: exactly how many requests may
	// wait for a worker before PredictReq rejects. Default 1024.
	QueueCapacity int
	// Seed keys per-request sampling. A server with seed s answers a request
	// for v exactly as infer.Sampled(model, ds, {v}, Options{Seed: s}) would.
	// Default 1.
	Seed uint64
	// CacheRows enables the GPU feature cache with the given row capacity
	// by wrapping the server's store in a store.Cached; 0 disables caching.
	// The cache only affects the transfer accounting in Stats, never
	// predictions.
	CacheRows int
	// CachePolicy selects the cache policy when CacheRows > 0.
	CachePolicy cache.Policy
	// Store is the feature-access layer requests are gathered through. Nil
	// selects the flat store over the dataset. When CacheRows > 0 the
	// server wraps this base store in a store.Cached; pass an already
	// cached store with CacheRows = 0 for custom compositions.
	Store store.FeatureStore
	// EmbCacheRows enables historical layer-embedding reuse with the given
	// row capacity: first-layer output embeddings of completed micro-batches
	// are cached by (node, snapshot version), and a later micro-batch stops
	// sampling below a frontier node whose cached embedding is within the
	// EmbStaleness window — the node's whole deeper fan-out (sampling,
	// gather, layer-1 aggregation) collapses into one row copy. 0 disables
	// reuse entirely. Requires a model implementing nn.ResumeModel and at
	// least 2 layers.
	EmbCacheRows int
	// EmbStaleness is the bounded-staleness window in graph snapshot
	// versions for embedding reuse: an embedding computed at version V may
	// answer a micro-batch pinned at version W iff W-V <= EmbStaleness.
	// 0 means never reuse (predictions stay bit-identical to a server
	// without the cache — the oracle mode); the cache still absorbs
	// embeddings so widening the window later takes effect immediately. On
	// a static graph every version is 0, so any nonzero window enables
	// full reuse.
	EmbStaleness uint64
	// Graph is the topology source micro-batches sample against. Nil serves
	// the dataset's static graph. A *graph.Dynamic enables the update APIs
	// (Update, AddNode): every micro-batch pins the graph's LATEST view
	// before sampling, and each response reports the version it was computed
	// against — so freshness is per-micro-batch while every answer is still
	// internally consistent (one version end to end). With zero applied
	// updates answers are bit-identical to the static server's.
	Graph graph.Viewer
}

func (o *Options) normalize() error {
	if len(o.Fanouts) == 0 {
		return fmt.Errorf("serve: no fanouts")
	}
	if o.Workers < 1 {
		o.Workers = 2
	}
	if o.MaxBatch < 1 {
		o.MaxBatch = 64
	}
	if o.QueueCapacity < 1 {
		o.QueueCapacity = 1024
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return nil
}

// Request is one prediction request with its serving QoS attributes. The
// zero values — no deadline, lowest priority — ask for the node alone, so
// callers that don't care about QoS never see it.
type Request struct {
	// Node is the node to predict.
	Node int32
	// Deadline, when nonzero, is the instant after which the answer is
	// useless: the server sheds the request (with ErrDeadline wrapped in a
	// *RequestError) instead of executing it past-due, and fleet-level
	// admission refuses it up front when the replica's live service-time
	// estimate says it provably cannot be met.
	Deadline time.Time
	// Priority orders requests under overload: higher values are more
	// important. The server itself is FIFO — priority is consumed by the
	// admission layer in front of the server (internal/fleet), which sheds
	// lowest-priority traffic first.
	Priority uint8
}

// RequestError is the per-request context of a failed or shed request: which
// node, how its deadline stood at failure time, and the underlying cause.
// A failed micro-batch reports one RequestError per member rather than one
// anonymous error for the whole batch, so shed accounting can distinguish a
// deadline miss on node A from a capacity shed of node B.
type RequestError struct {
	// Node is the requested node.
	Node int32
	// HasDeadline reports whether the request carried a deadline (Remaining
	// is meaningless without one).
	HasDeadline bool
	// Remaining is deadline minus the failure instant: negative means the
	// deadline had already passed by that much.
	Remaining time.Duration
	// Err is the underlying cause (ErrDeadline, a store/sampler error, ...).
	Err error
}

func (e *RequestError) Error() string {
	if e.HasDeadline {
		return fmt.Sprintf("serve: node %d (deadline remaining %v): %v", e.Node, e.Remaining, e.Err)
	}
	return fmt.Sprintf("serve: node %d: %v", e.Node, e.Err)
}

// Unwrap exposes the cause to errors.Is/errors.As.
func (e *RequestError) Unwrap() error { return e.Err }

// request is one in-flight PredictReq.
type request struct {
	node     int32
	deadline time.Time // zero: none
	pri      uint8
	enq      time.Time
	done     chan result
}

type result struct {
	label   int32
	version uint64 // graph snapshot version the answer was computed against
	err     error
}

// Prediction is one answered request: the predicted label plus the graph
// snapshot version it was computed against. On a static server Version is
// always 0; on a dynamic one it is the graph.Dynamic mutation count the
// micro-batch pinned, letting clients reason about the freshness of an
// answer relative to their own updates ("my edge insert returned version 7;
// this prediction reports 9, so it saw the insert").
type Prediction struct {
	Label   int32
	Version uint64
}

// Stats is a snapshot of the server's counters and distributions.
type Stats struct {
	Submitted int64 // requests accepted for execution
	Rejected  int64 // requests refused with ErrSaturated
	Served    int64 // requests answered
	Batches   int64 // micro-batches executed

	// DeadlineSheds counts accepted requests whose deadline expired before
	// their micro-batch executed; each was failed with ErrDeadline (wrapped
	// in a *RequestError) instead of being computed past-due. Distinct from
	// Rejected, which counts capacity refusals at admission.
	DeadlineSheds int64

	// Bounded event.Hist summaries since New or ResetStats: Count, Mean and
	// Max exact, quantiles at most 2^-6 below exact (occupancies exact).
	Latency   event.Summary // per-request submit→answer latency, seconds
	Occupancy event.Summary // requests per micro-batch

	// GraphVersion is the graph's latest snapshot version at the time of
	// the stats snapshot (0 for a static server); Compactions counts how
	// often the dynamic graph folded deltas back into CSR form.
	GraphVersion uint64
	Compactions  int64

	// Transfer accounting, read from the server's feature store (cache
	// counters are zero-valued when caching is disabled). Bytes assume
	// half-precision feature rows, as the host stores them.
	CacheLookups     int64
	CacheHits        int64
	BytesTransferred int64
	BytesSaved       int64

	// Embedding-reuse accounting (zero-valued when Options.EmbCacheRows
	// is 0). EmbLookups counts frontier nodes consulted against the
	// historical-embedding cache; EmbHits counts the ones whose deeper
	// fan-out was truncated by a cached row.
	EmbLookups int64
	EmbHits    int64
}

// EmbHitRate returns the fraction of frontier-node lookups answered by the
// historical-embedding cache (the fraction of level-1 fan-outs avoided).
func (s Stats) EmbHitRate() float64 {
	if s.EmbLookups == 0 {
		return 0
	}
	return float64(s.EmbHits) / float64(s.EmbLookups)
}

// Server is an online sampled-inference server over a trained model. Create
// with New, call PredictReq from any number of goroutines, and Close when
// done.
type Server struct {
	model nn.Model
	ds    *dataset.Dataset
	opts  Options

	// reqs is the admission queue, buffered to exactly QueueCapacity. Idle
	// workers block receiving from it, so an idle server costs no CPU; Close
	// closes it and the workers drain what is left before exiting.
	reqs chan *request

	// store is the feature-access layer; it owns all transfer and cache
	// accounting (Cached-wrapped when Options.CacheRows > 0).
	store store.FeatureStore

	// emb is the shared historical layer-embedding cache and resume the
	// model's split forward entry points; both are nil/zero unless
	// Options.EmbCacheRows > 0.
	emb    *embcache.Cache[float32]
	resume nn.ResumeModel

	// topo yields the topology view each micro-batch samples against; a
	// static server holds one pinned version-0 snapshot here. dyn is non-nil
	// iff Options.Graph was a *graph.Dynamic, enabling the update APIs.
	topo graph.Viewer
	dyn  *graph.Dynamic
	// refreshMu serializes feature-cache placement refreshes; refreshed
	// (written only under it) is the newest snapshot version the top-K
	// placement reflects. Losing workers skip rather than wait.
	refreshMu sync.Mutex
	refreshed atomic.Uint64
	// updateMu orders AddNode's paired store-append + graph-grow so feature
	// row IDs and node IDs cannot interleave out of alignment.
	updateMu sync.Mutex

	statsMu   sync.Mutex
	submitted int64
	rejected  int64
	served    int64
	batches   int64
	deadlined int64 // accepted requests shed because their deadline expired
	latency   event.Hist
	occupancy event.Hist
	// svc is the two-half service window (recordLatency, EstimateServiceTime).
	svc    [2]event.Hist
	svcCur int

	// gate orders PredictReq's send against Close: it sends under the read
	// lock, and Close flips closing and closes reqs under the write lock, so
	// no send can reach a closed channel.
	gate    sync.RWMutex
	closing bool

	wg     sync.WaitGroup
	closed sync.Once
}

// New starts a server over a trained model and its dataset. The caller keeps
// ownership of both but must not train the model while the server is live.
func New(m nn.Model, ds *dataset.Dataset, opts Options) (*Server, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if len(opts.Fanouts) != m.Layers() {
		return nil, fmt.Errorf("serve: %d fanouts for a %d-layer %s", len(opts.Fanouts), m.Layers(), m.Name())
	}
	s := &Server{
		model: m,
		ds:    ds,
		opts:  opts,
		reqs:  make(chan *request, opts.QueueCapacity),
	}
	if opts.Graph != nil {
		s.topo = opts.Graph
		if d, ok := opts.Graph.(*graph.Dynamic); ok {
			s.dyn = d
		}
	} else {
		s.topo = graph.Static(ds.G)
	}
	// mfg.Merge is a disjoint union (a node two requests sample is staged
	// twice), so a full micro-batch bounds at MaxBatch single-request MFGs.
	rows := opts.MaxBatch * prep.MaxRowsEstimate(1, opts.Fanouts, int(s.topo.View().NumNodes()))
	base := opts.Store
	if base == nil {
		base = store.NewFlat(ds)
	}
	if err := store.Validate(base, ds, store.ValidateOpts{AllowGrown: opts.Graph != nil}); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.store = base
	if opts.CacheRows > 0 {
		cached, err := store.NewCached(base, ds.G, store.CacheOptions{Rows: opts.CacheRows, Policy: opts.CachePolicy})
		if err != nil {
			return nil, err
		}
		s.store = cached
	}
	if opts.EmbCacheRows > 0 {
		rm, ok := m.(nn.ResumeModel)
		if !ok {
			return nil, fmt.Errorf("serve: model %s cannot reuse embeddings (need nn.ResumeModel)", m.Name())
		}
		if len(opts.Fanouts) < 2 {
			return nil, fmt.Errorf("serve: embedding reuse needs at least 2 layers, got %d", len(opts.Fanouts))
		}
		emb, err := embcache.New[float32](opts.EmbCacheRows)
		if err != nil {
			return nil, err
		}
		s.emb, s.resume = emb, rm
	}
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker(slicing.NewPinned(rows, ds.FeatDim, opts.MaxBatch))
	}
	return s, nil
}

// serviceWindow is the size of each half of the service window, so the live
// service-time estimate covers the last 256-512 answers: enough to smooth
// micro-batch granularity, few enough to track load shifts quickly.
const serviceWindow = 256

// EstimateServiceTime returns the p95 (to the event.Hist bucket bound) of
// the last 256-512 requests' submit->answer latencies — the server's live
// service-time estimate. A request whose deadline is closer than this
// cannot be met to p95 confidence, which is the admission layer's shed
// criterion. Returns 0 when no request has completed yet (callers should
// admit on no-signal). It allocates nothing.
func (s *Server) EstimateServiceTime() time.Duration {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	recent := s.svc[0]
	recent.Merge(&s.svc[1])
	return time.Duration(recent.Quantile(0.95) * float64(time.Second))
}

// recordLatency records one answer's submit->answer latency, in seconds.
// Once the current half of the service window holds serviceWindow samples,
// the other half is reset and becomes current. The caller holds statsMu.
func (s *Server) recordLatency(lat float64) {
	s.latency.Add(lat)
	if s.svc[s.svcCur].Count() == serviceWindow {
		s.svcCur ^= 1
		s.svc[s.svcCur].Reset()
	}
	s.svc[s.svcCur].Add(lat)
}

// QueueDepth returns the instantaneous (advisory) number of requests
// waiting for a worker.
func (s *Server) QueueDepth() int { return len(s.reqs) }

// QueueCap returns the admission capacity — the saturation point PredictReq
// rejects at (Options.QueueCapacity).
func (s *Server) QueueCap() int { return cap(s.reqs) }

// PredictReq requests a prediction for r.Node and blocks until it is
// answered or rejected, reporting the graph snapshot version the answer was
// computed against alongside the label. An optional deadline sheds an
// expired request instead of computing it; the priority is consumed by
// fleet-level admission. Safe for any number of goroutines. Saturation is
// reported as ErrSaturated without blocking; a closed server reports
// ErrClosed.
func (s *Server) PredictReq(r Request) (Prediction, error) {
	node := r.Node
	if n := s.numNodes(); node < 0 || node >= n {
		return Prediction{}, fmt.Errorf("serve: node %d out of range [0,%d)", node, n)
	}
	now := time.Now()
	if !r.Deadline.IsZero() && now.After(r.Deadline) {
		// Already past due at submission: shed without queueing it.
		s.statsMu.Lock()
		s.deadlined++
		s.statsMu.Unlock()
		return Prediction{}, &RequestError{Node: node, HasDeadline: true, Remaining: r.Deadline.Sub(now), Err: ErrDeadline}
	}
	req := &request{node: node, deadline: r.Deadline, pri: r.Priority, enq: now, done: make(chan result, 1)}
	s.gate.RLock()
	if s.closing {
		s.gate.RUnlock()
		return Prediction{}, ErrClosed
	}
	// Count the request before it becomes visible to a worker, so no Stats
	// snapshot can see it served before it was submitted.
	s.statsMu.Lock()
	s.submitted++
	s.statsMu.Unlock()
	select {
	case s.reqs <- req:
		s.gate.RUnlock()
	default:
		s.gate.RUnlock()
		s.statsMu.Lock()
		s.submitted--
		s.rejected++
		s.statsMu.Unlock()
		return Prediction{}, ErrSaturated
	}
	res := <-req.done
	return Prediction{Label: res.label, Version: res.version}, res.err
}

// numNodes returns the live node count without touching the dynamic
// graph's mutex (Dynamic.NumNodes is atomic; a pinned view is its own free
// Viewer), keeping request admission off the writer lock.
func (s *Server) numNodes() int32 {
	if s.dyn != nil {
		return s.dyn.NumNodes()
	}
	return s.topo.View().NumNodes()
}

// Update submits a batch of edge insertions (directed pairs src[i] ->
// dst[i]) to the server's dynamic graph and returns how many were applied
// (already-present edges are dropped — graph.Dynamic keeps adjacency
// duplicate-free) plus the resulting graph version. Micro-batches coalesced
// after the returned version pin a snapshot that includes these edges;
// in-flight micro-batches keep their already-pinned snapshot, so no answer
// ever mixes versions. Updates are accepted regardless of request-queue
// saturation — admission control sheds reads, not writes.
func (s *Server) Update(src, dst []int32) (int, uint64, error) {
	if s.dyn == nil {
		return 0, 0, ErrStaticGraph
	}
	applied, err := s.dyn.AddEdges(src, dst)
	if err != nil {
		return 0, 0, err
	}
	return applied, s.dyn.Version(), nil
}

// AddNode grows the graph by one node carrying the given feature row
// (float32, FeatDim wide) and label, connected undirected to the given
// neighbor nodes (both directions inserted, matching the repo's symmetrized
// datasets; pass none for an isolated node). The feature row is appended
// through the server's store, which must implement store.Appendable (the
// flat store and caches over it do); the new node is immediately
// predictable via PredictReq. Returns the new node ID and the graph
// version after the insertion.
func (s *Server) AddNode(feat []float32, label int32, neighbors []int32) (int32, uint64, error) {
	if s.dyn == nil {
		return 0, 0, ErrStaticGraph
	}
	ap, ok := s.store.(store.Appendable)
	if !ok {
		return 0, 0, fmt.Errorf("serve: store %T cannot grow (need store.Appendable)", s.store)
	}
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	// Validate EVERYTHING before growing anything — a failure after the
	// append/AddNodes would leave an orphaned row/node behind the error,
	// and a client retry would then create a duplicate. That means the
	// neighbor list is range-checked here, and the graph/store alignment
	// (equal counts; a store may legitimately start larger under
	// Validate's AllowGrown, but then it cannot grow in lockstep) is a
	// precondition, not a post-mutation surprise.
	n := s.dyn.NumNodes()
	for _, v := range neighbors {
		if v < 0 || v >= n {
			return 0, 0, fmt.Errorf("serve: AddNode neighbor %d out of range [0,%d)", v, n)
		}
	}
	if sn := s.store.NumNodes(); sn != int(n) {
		return 0, 0, fmt.Errorf("serve: store holds %d rows but graph has %d nodes; AddNode requires lockstep growth (grow both only through the server)", sn, n)
	}
	row, err := ap.AppendRows(feat, []int32{label})
	if err != nil {
		return 0, 0, err
	}
	id, err := s.dyn.AddNodes(1)
	if err != nil {
		return 0, 0, err
	}
	if id != row {
		return 0, 0, fmt.Errorf("serve: graph node %d and store row %d diverged (grow graph and store only through the server)", id, row)
	}
	if len(neighbors) > 0 {
		es, ed := make([]int32, 0, 2*len(neighbors)), make([]int32, 0, 2*len(neighbors))
		for _, v := range neighbors {
			es = append(es, id, v)
			ed = append(ed, v, id)
		}
		if _, err := s.dyn.AddEdges(es, ed); err != nil {
			return id, 0, err
		}
	}
	return id, s.dyn.Version(), nil
}

// Close stops admitting requests, drains and answers everything already
// queued, and waits for the workers to exit. Safe to call more than once.
func (s *Server) Close() {
	s.closed.Do(func() {
		s.gate.Lock()
		s.closing = true
		close(s.reqs)
		s.gate.Unlock()
		s.wg.Wait()
	})
}

// Stats returns a snapshot of the server's accumulated statistics. Transfer
// and cache numbers come from the feature store; if the caller shares that
// store with other consumers, they share the accounting too.
func (s *Server) Stats() Stats {
	ss := s.store.Stats()
	var es embcache.Stats
	if s.emb != nil {
		es = s.emb.Stats()
	}
	// Read the version without pinning a snapshot: a monitoring call must
	// never be the one that materializes an overlay or runs a compaction.
	var version uint64
	var compactions int64
	if s.dyn != nil {
		version = s.dyn.Version()
		compactions = s.dyn.Compactions()
	} else {
		version = s.topo.View().Version()
	}
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return Stats{
		GraphVersion:     version,
		Compactions:      compactions,
		Submitted:        s.submitted,
		Rejected:         s.rejected,
		Served:           s.served,
		Batches:          s.batches,
		DeadlineSheds:    s.deadlined,
		Latency:          s.latency.Summarize(),
		Occupancy:        s.occupancy.Summarize(),
		BytesTransferred: ss.BytesMoved,
		BytesSaved:       ss.BytesSaved,
		CacheLookups:     ss.CacheLookups,
		CacheHits:        ss.CacheHits,
		EmbLookups:       es.Lookups,
		EmbHits:          es.Hits,
	}
}

// FeatureStore returns the store the server gathers features through (the
// Cached wrapper when Options.CacheRows > 0).
func (s *Server) FeatureStore() store.FeatureStore { return s.store }

// workerState is one batching worker's recycled scratch: its private
// sampler, the per-request MFG slots requests are sampled into (recycled
// across micro-batches, the serving counterpart of prep's batch arenas), the
// merge pointer list, a single-seed buffer, the pinned staging buffer, the
// decode tensor, and the argmax output. Everything here is released for
// reuse as soon as the micro-batch's responses are delivered, so a
// steady-state worker allocates only what mfg.Merge needs for multi-request
// batches.
type workerState struct {
	sm    *sampler.Sampler
	snap  graph.View // topology pinned for the current micro-batch
	r     *rng.Rand  // reseeded per request, never reallocated
	slots []mfg.MFG  // slots[i] holds request i's sampled MFG
	ptrs  []*mfg.MFG // merge argument scratch
	seed  [1]int32
	buf   *slicing.Pinned
	x     *tensor.Dense
	pred  []int32

	// Embedding-reuse scratch (nil/empty unless the server has an emb
	// cache): the per-worker reuser installed as the sampler's truncate
	// hook, and the hit-row marks of the current micro-batch's layer-1
	// output.
	emb  *embcache.Reuser
	over []bool
}

// worker receives one request, takes whatever is already queued behind it
// (up to MaxBatch), and executes the batch end-to-end on the SALIENT data
// path, staging into buf. It never waits for more requests: whatever
// arrives during an execution forms the next batch. It exits once Close has
// closed the queue and the queue is drained.
func (s *Server) worker(buf *slicing.Pinned) {
	defer s.wg.Done()
	snap0 := s.topo.View()
	ws := &workerState{sm: sampler.New(snap0, s.opts.Fanouts, sampler.FastConfig()), snap: snap0, r: rng.New(0), buf: buf}
	if s.emb != nil {
		ws.emb = embcache.NewReuser(s.emb, s.opts.EmbStaleness)
		ws.sm.SetTruncate(ws.emb.Truncate)
	}
	batch := make([]*request, 0, s.opts.MaxBatch)
	for first := range s.reqs {
		batch = append(batch[:0], first)
	drain:
		for len(batch) < s.opts.MaxBatch {
			select {
			case r, ok := <-s.reqs:
				if !ok {
					break drain
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		s.execute(ws, batch)
	}
}

// execute answers one coalesced micro-batch: sample each request
// independently into the worker's recycled MFG slots, merge (bypassed for a
// single request — the slot is used directly), slice, forward once, and
// deliver per-request rows. Every buffer execute touches is released for
// reuse the moment the micro-batch's responses are delivered.
//
// Requests whose deadline expired while they queued are shed here, before
// any sampling: their answers could not be useful, and shedding them first
// shrinks the batch the survivors pay for. Per-request determinism makes
// this safe — each survivor is sampled with its own singleton-epoch RNG, so
// batch composition never changes an answer.
func (s *Server) execute(ws *workerState, batch []*request) {
	now := time.Now()
	live := batch[:0]
	shed := 0
	for _, req := range batch {
		if !req.deadline.IsZero() && now.After(req.deadline) {
			req.done <- result{err: &RequestError{Node: req.node, HasDeadline: true, Remaining: req.deadline.Sub(now), Err: ErrDeadline}}
			shed++
			continue
		}
		live = append(live, req)
	}
	if shed > 0 {
		s.statsMu.Lock()
		s.deadlined += int64(shed)
		s.statsMu.Unlock()
	}
	if len(live) == 0 {
		return
	}
	batch = live
	// Pin the latest view for this whole micro-batch: every request in
	// it samples one topology version and reports it. The static case pins
	// the same version-0 snapshot forever (pointer-equal, so this is free),
	// and a Dynamic caches its snapshot per version, so steady state without
	// churn allocates nothing here either.
	if snap := s.topo.View(); snap != ws.snap {
		ws.sm.Retarget(snap)
		ws.snap = snap
		s.refreshCache(snap)
	}
	for len(ws.slots) < len(batch) {
		ws.slots = append(ws.slots, mfg.MFG{})
	}
	if ws.emb != nil {
		// One reuse epoch per micro-batch, pinned at the batch's snapshot
		// version; the sampler's truncate hook attributes hits to requests.
		ws.emb.Begin(ws.snap.Version())
	}
	for i, req := range batch {
		// Singleton-epoch RNG: this exact draw is what infer.Sampled performs
		// for a one-node request, which pins per-request determinism no
		// matter how requests coalesce.
		ws.r.Reseed(prep.BatchSeed(s.opts.Seed, 0))
		ws.seed[0] = req.node
		if ws.emb != nil {
			ws.emb.BeginRequest(int32(i))
		}
		if err := ws.sm.SampleInto(ws.r, ws.seed[:], &ws.slots[i]); err != nil {
			// Unreachable in practice — PredictReq range-checks the node and a
			// single seed cannot duplicate — but fail the batch over panicking.
			s.deliverError(batch, err)
			return
		}
	}
	merged := &ws.slots[0]
	if len(batch) > 1 {
		ws.ptrs = ws.ptrs[:0]
		for i := range batch {
			ws.ptrs = append(ws.ptrs, &ws.slots[i])
		}
		merged = mfg.Merge(ws.ptrs)
	}

	if err := s.store.Gather(ws.buf, merged.NodeIDs, int(merged.Batch)); err != nil {
		s.deliverError(batch, err)
		return
	}
	ws.x = slicing.DecodeInto(ws.x, ws.buf)

	var logp *tensor.Dense
	if ws.emb != nil {
		// Split forward: compute layer 1, swap in cached embeddings for the
		// truncated frontier rows and absorb the fresh ones (ForwardRest's
		// in-place ReLU destroys them, so absorption must happen here), then
		// run the rest of the stack.
		h1 := s.resume.ForwardLayer1(ws.x, merged, false)
		s.applyReuse(ws, merged, h1, len(batch))
		logp = s.resume.ForwardRest(h1, merged, false)
	} else {
		logp = s.model.Forward(ws.x, merged, false)
	}
	if cap(ws.pred) < logp.Rows {
		ws.pred = make([]int32, logp.Rows)
	}
	pred := ws.pred[:logp.Rows]
	logp.ArgmaxRows(pred)

	now = time.Now()
	s.statsMu.Lock()
	s.batches++
	s.served += int64(len(batch))
	s.occupancy.Add(float64(len(batch)))
	for _, req := range batch {
		s.recordLatency(now.Sub(req.enq).Seconds())
	}
	s.statsMu.Unlock()

	// Merged row i is request i's seed (mfg.Merge seed-order contract).
	version := ws.snap.Version()
	for i, req := range batch {
		req.done <- result{label: pred[i], version: version}
	}
}

// cacheRefreshEvery rate-limits the feature cache's placement recompute
// under a dynamic graph: the placement is refreshed when a worker adopts a
// snapshot at least this many versions past the last refresh. Placement
// only changes transfer accounting — never predictions — so amortizing the
// O(N) recompute across versions is free correctness-wise.
const cacheRefreshEvery = 64

// refreshCache recomputes the feature cache's placement (top-K by degree or
// by observed traffic) for a newly adopted view, at most once per
// cacheRefreshEvery versions (workers race through the TryLock; losers
// skip — the winner's Refresh covers them).
func (s *Server) refreshCache(snap graph.View) {
	c, ok := s.store.(*store.Cached)
	if !ok {
		return
	}
	v := snap.Version()
	cur := s.refreshed.Load()
	if v == 0 || (cur != 0 && v < cur+cacheRefreshEvery) {
		return
	}
	// One refresher at a time, version re-checked and recorded under the
	// same lock as the placement swap: a slow refresh of an old snapshot
	// can never overwrite a newer one, and losers skip (the next adopted
	// snapshot re-checks) instead of queueing behind the sort.
	if !s.refreshMu.TryLock() {
		return
	}
	defer s.refreshMu.Unlock()
	if v <= s.refreshed.Load() {
		return
	}
	c.Refresh(snap)
	s.refreshed.Store(v)
}

// applyReuse finishes a split forward's layer-1 boundary work: every
// frontier row the sampler truncated is overwritten with its cached
// embedding (ForwardLayer1 aggregated an empty neighborhood there, so the
// fresh row is not the real layer-1 output), and every fresh row is
// absorbed into the cache at the micro-batch's snapshot version. Hit rows
// are NOT re-absorbed: they carry an older version's values, and stamping
// them with the current version would launder staleness.
func (s *Server) applyReuse(ws *workerState, merged *mfg.MFG, h1 *tensor.Dense, nreq int) {
	n := h1.Rows
	if cap(ws.over) < n {
		ws.over = make([]bool, n)
	}
	over := ws.over[:n]
	for i := range over {
		over[i] = false
	}
	for k := 0; k < ws.emb.Hits(); k++ {
		req, loc, emb := ws.emb.Hit(k)
		p := mergedFrontierPos(ws.slots[:nreq], int(req), int(loc))
		copy(h1.Row(p), emb)
		over[p] = true
	}
	version := ws.snap.Version()
	for p := 0; p < n; p++ {
		if over[p] {
			continue
		}
		// Width mismatches are impossible (one model, one hidden width), and
		// duplicate nodes across requests just overwrite at equal version.
		_ = s.emb.Put(merged.NodeIDs[p], version, h1.Row(p))
	}
}

// mergedFrontierPos maps request req's loc-th level-1 frontier entry (the
// order the sampler consults the truncate hook in) to its row in the merged
// forward. mfg.Merge lays levels out in bands — all inputs' seeds, then per
// level l = layers-1..1 each input's newly discovered sources — and a
// single-request batch is the identity mapping, so one formula covers both
// the merged and the bypassed (len(slots) == 1) paths.
func mergedFrontierPos(slots []mfg.MFG, req, loc int) int {
	seedOff := 0
	for j := 0; j < req; j++ {
		seedOff += int(slots[j].Batch)
	}
	if loc < int(slots[req].Batch) {
		return seedOff + loc
	}
	loc -= int(slots[req].Batch)
	base := seedOff
	for j := req; j < len(slots); j++ {
		base += int(slots[j].Batch)
	}
	for l := len(slots[req].Blocks) - 1; l >= 1; l-- {
		off, total := 0, 0
		for j := range slots {
			e := int(slots[j].Blocks[l].NumSrc - slots[j].Blocks[l].NumDst)
			if j < req {
				off += e
			}
			total += e
		}
		band := int(slots[req].Blocks[l].NumSrc - slots[req].Blocks[l].NumDst)
		if loc < band {
			return base + off + loc
		}
		loc -= band
		base += total
	}
	panic("serve: frontier position out of range") //lint:allow panicdiscipline the truncate hook is consulted only for level-1 frontier entries, so an overflow here is a sampler/merge invariant violation
}

// ResetStats zeroes the server's counters and latency/occupancy histograms
// along with the feature store's transfer accounting and the embedding
// cache's counters — the warm-up/measure seam benchmarks cut on. Cached
// rows and embeddings stay resident.
func (s *Server) ResetStats() {
	s.statsMu.Lock()
	s.submitted, s.rejected, s.served, s.batches, s.deadlined = 0, 0, 0, 0, 0
	s.latency.Reset()
	s.occupancy.Reset()
	s.svc = [2]event.Hist{}
	s.statsMu.Unlock()
	s.store.ResetStats()
	if s.emb != nil {
		s.emb.ResetStats()
	}
}

// deliverError fails every request of a micro-batch with the shared
// underlying cause, wrapped per request with that request's own context
// (node ID, deadline standing at failure time) — so a caller, or the
// fleet's shed accounting, can tell a deadline miss on one node from a
// capacity or store failure on another instead of seeing one anonymous
// error for the whole batch.
func (s *Server) deliverError(batch []*request, err error) {
	now := time.Now()
	for _, req := range batch {
		re := &RequestError{Node: req.node, Err: err}
		if !req.deadline.IsZero() {
			re.HasDeadline = true
			re.Remaining = req.deadline.Sub(now)
		}
		req.done <- result{err: re}
	}
}
