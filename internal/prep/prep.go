// Package prep implements the batch-preparation executors that feed
// mini-batches to training (paper §4.2): the real, concurrent data paths
// whose cost structure the pipeline simulations in internal/pipeline model
// at full scale.
//
// Two executors are provided:
//
//   - Salient: SALIENT's shared-memory design. Worker goroutines prepare
//     whole batches end-to-end — sampling with the fast sampler straight
//     into a recycled batch arena, then serially slicing features into the
//     arena's pinned staging buffer — and balance load dynamically: an idle
//     worker claims the next unclaimed batch index from one shared atomic
//     counter. Nothing is copied between workers and the consumer; the
//     arena itself is handed over, and Batch.Release recycles it, so
//     steady-state preparation performs (near-)zero heap allocations even
//     with many batches in flight.
//
//   - PyG: the PyTorch DataLoader model. Workers are statically assigned
//     batches round-robin (batch i goes to worker i mod P) and perform only
//     sampling; the sampled MFG is deep-copied once more to model the
//     worker→main process IPC (pickling through POSIX shared memory), and
//     slicing runs afterwards on the consumer side with a statically striped
//     parallel kernel, as PyTorch's internally parallel indexing does. Its
//     pinned staging buffers recycle through the same arena pool; its MFGs
//     stay batch-owned, since that copy is the IPC the model charges for.
//
// Batches are deterministic in content: batch index i of an epoch keyed by
// epochSeed always contains the same seeds and the same sampled MFG, no
// matter which worker prepares it or in which order batches finish. The
// FixedOrder/IndexBase/IndexStride options extend that guarantee across
// executors: R striped executors over shards of one epoch permutation
// prepare exactly the batches a sole executor would, which is how the
// trainer (internal/train) feeds its replicas.
//
// Feature rows are read through the FeatureStore layer (internal/store):
// the executors never touch the dataset's arrays directly, so the same
// preparation pipeline runs over flat, sharded, or cached feature layouts.
package prep

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"salient/internal/dataset"
	"salient/internal/graph"
	"salient/internal/mfg"
	"salient/internal/rng"
	"salient/internal/sampler"
	"salient/internal/slicing"
	"salient/internal/store"
)

// Batch is one prepared mini-batch: the sampled message-flow graph plus the
// staged (pinned) feature and label slices. The consumer must call Release
// when it is done with the batch.
//
// Ownership: a batch's Buf (and a SALIENT batch's MFG) live in a recycled
// arena. Release returns the whole arena to the executor's bounded pool,
// after which the batch's buffer contents belong to whichever batch next
// occupies the arena — consume (or copy) everything a batch references
// before releasing it. Release is idempotent on the same Batch.
type Batch struct {
	Index int // position within this executor's epoch (delivery order key)
	// GlobalIndex is the batch's position in the global epoch schedule
	// (Options.IndexBase + Index×Options.IndexStride); it keys the batch's
	// sampling and dropout RNGs. For a sole executor it equals Index; the
	// data-parallel trainer stripes R executors so their GlobalIndexes
	// interleave into one global sequence.
	GlobalIndex int
	Seeds       []int32  // global seed node IDs (label rows are in Buf.Labels)
	MFG         *mfg.MFG // arena-backed (Salient) or batch-owned (PyG); nil after Release
	Buf         *slicing.Pinned

	// Fused is set instead of Buf when the executor runs the fused
	// gather+aggregate pipeline (Options.Fused): the first layer's
	// pre-aggregated tensors replace the staged feature buffer. Arena-backed
	// and recycled exactly like Buf.
	Fused *slicing.Fused

	// Err reports a preparation failure for this batch: a seed set the
	// sampler rejects (sampler.SeedError — then MFG is nil too) or a
	// feature-store gather rejection. An errored batch carries no staged
	// buffer; it still occupies its epoch index so ordered delivery never
	// stalls, and the consumer must still Release it. The stream records the
	// first such error (Stream.Err).
	Err error

	ar    *arena     // the batch's recycled footprint
	owner *arenaPool // pool ar returns to on Release
}

// Release returns the batch's arena (its MFG buffers and pinned staging
// slot) to the executor's pool. It is idempotent; releasing also serves as
// the epoch's in-flight credit, so holding InFlight or more unreleased
// batches stalls the stream.
func (b *Batch) Release() {
	b.Buf = nil
	b.Fused = nil
	if b.ar != nil {
		a, p := b.ar, b.owner
		b.ar, b.owner = nil, nil
		// Nil the MFG too: the arena may be re-filled by a worker the
		// moment it is back in the pool, so a post-Release read should fail
		// fast on nil rather than silently observe the next occupant.
		b.MFG = nil
		p.put(a)
	}
}

// Labels returns the batch's seed labels wherever they were staged: the
// pinned buffer on the staged path, the fused staging on the fused path.
func (b *Batch) Labels() []int32 {
	if b.Fused != nil {
		return b.Fused.Labels
	}
	if b.Buf != nil {
		return b.Buf.Labels
	}
	return nil
}

// TransferBytes returns the host-to-device payload this batch represents:
// staged features and labels (or, fused, the two pre-aggregated NumDst×dim
// tensors) plus the MFG index structures.
func (b *Batch) TransferBytes() int64 {
	var n int64
	if b.Buf != nil {
		n += b.Buf.Bytes()
	}
	if b.Fused != nil {
		n += b.Fused.Bytes()
	}
	if b.MFG != nil {
		for i := range b.MFG.Blocks {
			blk := &b.MFG.Blocks[i]
			n += int64(len(blk.Src))*4 + int64(len(blk.DstPtr))*4
		}
	}
	return n
}

// Options configures an executor.
type Options struct {
	// Workers is the number of preparation workers (goroutines standing in
	// for SALIENT's C++ threads or PyG's DataLoader processes). Default 1.
	Workers int
	// InFlight bounds the number of simultaneously staged batches (recycled
	// batch arenas: pinned staging plus MFG buffers). Default 2×Workers.
	InFlight int
	// BatchSize is the number of seed nodes per mini-batch. Required.
	BatchSize int
	// Fanouts are the per-layer sampling fanouts. Required.
	Fanouts []int
	// Sampler selects the sampler design point. Zero value is the PyG
	// baseline configuration; use sampler.FastConfig() for SALIENT.
	Sampler sampler.Config
	// Ordered makes the output stream deliver batches in index order.
	// SALIENT's dynamic load balancing naturally completes batches out of
	// order; ordering adds a small reorder stage on the consumer side and
	// makes end-to-end training bit-reproducible.
	Ordered bool
	// Store is the feature-access layer batches are gathered through. Nil
	// selects the flat store over the dataset (the seed behavior); sharded
	// and cached stores change layout and transfer accounting without
	// changing batch contents.
	Store store.FeatureStore
	// FixedOrder uses the seed list exactly as given instead of shuffling
	// it per epoch: the caller owns the permutation, and the executor reads
	// it in place, so it must stay unmodified until the stream drains. The
	// trainer (internal/train) pre-shuffles the global epoch once and hands
	// each replica its deterministic shard in schedule order.
	FixedOrder bool
	// Graph is the topology source epochs sample against. Nil pins the
	// dataset's static graph; a *graph.Dynamic makes each Run pin the
	// latest view for the WHOLE epoch (batch contents stay deterministic
	// mid-epoch no matter how the graph churns between epochs), and a pinned
	// view — a *graph.Snapshot, or a *graph.Partitioned fetching remote
	// adjacency over a transport — freezes every epoch to that one version,
	// which is how the data-parallel trainer keeps R striped executors on
	// one view.
	Graph graph.Viewer
	// Fused switches the executor to the fused gather+aggregate pipeline:
	// instead of staging the NumSrc×dim feature buffer, each batch carries
	// the first layer's pre-reduced aggregate and x_target tensors
	// (Batch.Fused), computed in one pass over the stored rows. Requires a
	// store implementing store.FusedGatherer and a model implementing
	// nn.FusedModel whose FusedOp matches. Zero value AggNone is the staged
	// path. Salient-only: the PyG executor models the reference DataLoader,
	// which has no fused kernel.
	Fused slicing.AggOp
	// IndexBase and IndexStride map this executor's local batch indices
	// onto global epoch batch indices: local batch i carries GlobalIndex
	// IndexBase+i×IndexStride and samples with BatchRNG(epochSeed,
	// GlobalIndex). R executors striped as (base=r, stride=R) over
	// FixedOrder shards of one permutation therefore prepare exactly the
	// batches a sole executor (base 0, stride 1) would prepare for the
	// whole epoch. Zero values mean base 0, stride 1.
	IndexBase   int
	IndexStride int
}

func (o *Options) normalize() error {
	if o.BatchSize < 1 {
		return fmt.Errorf("prep: batch size %d < 1", o.BatchSize)
	}
	if len(o.Fanouts) == 0 {
		return fmt.Errorf("prep: no fanouts")
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.InFlight < 1 {
		o.InFlight = 2 * o.Workers
	}
	if o.InFlight < o.Workers {
		o.InFlight = o.Workers
	}
	if o.IndexBase < 0 || o.IndexStride < 0 {
		return fmt.Errorf("prep: negative batch-index mapping (base %d, stride %d)", o.IndexBase, o.IndexStride)
	}
	if o.IndexStride == 0 {
		o.IndexStride = 1
	}
	return nil
}

// epochPerm resolves the epoch's batch schedule: the caller's slice itself
// under FixedOrder, otherwise the deterministic epoch shuffle.
func (o *Options) epochPerm(seeds []int32, epochSeed uint64) []int32 {
	if o.FixedOrder {
		return seeds
	}
	return EpochPerm(seeds, epochSeed)
}

// globalIndex maps a local batch index onto the global epoch schedule.
func (o *Options) globalIndex(i int) int { return o.IndexBase + i*o.IndexStride }

// Stream is an in-progress epoch of prepared batches. Batches arrive on C;
// the channel closes when every batch has been delivered. Each received
// batch must be Released by the consumer.
type Stream struct {
	C <-chan *Batch

	// Graph is the pinned topology view every batch of this epoch sampled
	// against (its Version identifies the graph state; version 0 is the
	// static case). Set before the first batch is delivered.
	Graph graph.View

	wg sync.WaitGroup

	errMu sync.Mutex
	err   error

	// Per-worker accounting, written by each worker in its own slot and
	// safe to read after Wait returns.
	workerBusy    []time.Duration
	workerBatches []int
}

// setErr records the first batch-preparation failure of the epoch.
func (s *Stream) setErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// Err returns the first batch-preparation failure of the epoch, or nil.
// Individual failed batches also arrive on C with Batch.Err set; Err is the
// post-drain summary check.
func (s *Stream) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// WorkerStats reports how preparation work distributed across workers for
// this epoch: per-worker busy time and batch counts. Valid after the stream
// has been fully drained (Wait). SALIENT's dynamic load balancing keeps the
// busy times close; the DataLoader's static assignment lets neighborhood
// size variation skew them (paper §4.2).
func (s *Stream) WorkerStats() (busy []time.Duration, batches []int) {
	return s.workerBusy, s.workerBatches
}

// Wait blocks until all executor goroutines have exited. The stream's
// channel is closed before Wait returns. Consumers that drain C to
// completion do not need to call Wait, but it is harmless.
func (s *Stream) Wait() { s.wg.Wait() }

// batchSeeds returns the seed IDs of epoch batch i (a contiguous chunk of
// the shuffled permutation).
func batchSeeds(perm []int32, batchSize, i int) []int32 {
	lo := i * batchSize
	hi := lo + batchSize
	if hi > len(perm) {
		hi = len(perm)
	}
	return perm[lo:hi]
}

// EpochPerm returns the deterministic epoch permutation of the seed set —
// the global batch schedule an executor runs when FixedOrder is off.
// Exported so the trainer (internal/train) can compute the same permutation
// once and hand each replica its shard with FixedOrder.
func EpochPerm(seeds []int32, epochSeed uint64) []int32 {
	perm := append([]int32(nil), seeds...)
	r := rng.New(epochSeed)
	r.Shuffle(perm)
	return perm
}

// BatchSeed derives the deterministic sampling-RNG seed for a given
// (epoch, batch) pair. Allocation-free callers on the hot path (the Salient
// workers, the serving layer) Reseed a recycled rng.Rand with it; BatchRNG
// wraps it for one-shot use.
func BatchSeed(epochSeed uint64, index int) uint64 {
	return epochSeed*0x9e3779b97f4a7c15 + uint64(index)*0xbf58476d1ce4e5b9 + 1
}

// BatchRNG returns the deterministic RNG for a given (epoch, batch) pair.
// It is the executors' sampling-RNG derivation, exported so other consumers
// of the data path (the online serving layer) can reproduce exactly the
// sample a given epoch batch would draw — serve keys per-request sampling to
// BatchRNG(seed, 0), the RNG of a singleton epoch, making each prediction
// identical to one-shot infer.Sampled on that node alone.
func BatchRNG(epochSeed uint64, index int) *rng.Rand {
	return rng.New(BatchSeed(epochSeed, index))
}

// NumBatches returns the number of mini-batches an epoch over n seeds makes.
func NumBatches(n, batchSize int) int {
	return (n + batchSize - 1) / batchSize
}

// storeFor resolves the configured feature store, defaulting to the flat
// layout over ds, and rejects dimensionality mismatches up front. Under a
// dynamic graph the store may already have grown past the dataset, so only
// the dimensionality (and a row-count floor) is enforced; per-gather ID
// range checks cover the rest.
func storeFor(ds *dataset.Dataset, opts Options) (store.FeatureStore, error) {
	st := opts.Store
	if st == nil {
		return store.NewFlat(ds), nil
	}
	if err := store.Validate(st, ds, store.ValidateOpts{AllowGrown: opts.Graph != nil}); err != nil {
		return nil, fmt.Errorf("prep: %w", err)
	}
	return st, nil
}

// viewerFor resolves the configured topology source, defaulting to the
// dataset's static graph.
func viewerFor(ds *dataset.Dataset, opts Options) graph.Viewer {
	if opts.Graph != nil {
		return opts.Graph
	}
	return graph.Static(ds.G)
}

// MaxRowsEstimate bounds the expanded-neighborhood row count of one batch:
// batch × Π(fanout+1), capped at the graph size n. It is how the executors
// pre-size their pinned staging buffers, exported so other consumers of the
// kernels (benchmarks, examples) pre-size identically instead of copying
// the formula.
func MaxRowsEstimate(batch int, fanouts []int, n int) int {
	est := batch
	for _, f := range fanouts {
		if est >= n {
			break
		}
		est *= f + 1
	}
	if est > n {
		est = n
	}
	return est
}

// Salient is the shared-memory batch-preparation executor.
//
// Batch arenas are a bounded resource: the consumer must Release batches as
// it finishes with them and must not hold InFlight or more unreleased
// batches while waiting for another, or the epoch stalls (the same contract
// SALIENT's recycled batch slots impose on the training loop).
//
// An executor runs one epoch at a time: samplers and arenas persist across
// Run calls (that persistence is what makes steady-state preparation
// allocation-free), so do not start a new epoch until the previous stream is
// fully drained.
type Salient struct {
	ds    *dataset.Dataset
	opts  Options
	store store.FeatureStore
	// arenas bounds in-flight batches and recycles their whole footprint: a
	// worker takes one arena before claiming a batch index, and the arena is
	// returned when the consumer Releases the batch. Indices are claimed in
	// increasing order from one counter, and the arena is taken before the
	// claim, so an arena holder always claims the lowest unclaimed index —
	// ordered delivery cannot starve the emission cursor's batch as long as
	// the consumer holds fewer than InFlight unreleased batches.
	arenas *arenaPool
	// fused is the store's fused gather+aggregate kernel, resolved once at
	// construction when Options.Fused is set (nil on the staged path).
	fused store.FusedGatherer
	// samplers[w] is worker w's private fast sampler, persistent across
	// epochs so its ID map, dedup scratch, and phase buffers stay warm.
	samplers []*sampler.Sampler
	// running guards the one-epoch-at-a-time contract: overlapping Run
	// calls would race on the persistent samplers, so they fail fast here
	// instead of corrupting batches silently.
	running atomic.Bool
	// graph yields the topology; snap is the pinned view the NEXT epoch
	// samples (re-pinned at each Run), and rows the arena sizing basis.
	graph graph.Viewer
	snap  graph.View
	rows  int
}

// NewSalient builds a SALIENT executor over ds. The arena pool (pinned
// staging plus MFG buffers) and the per-worker samplers are allocated once
// and recycled across batches and epochs.
func NewSalient(ds *dataset.Dataset, opts Options) (*Salient, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	st, err := storeFor(ds, opts)
	if err != nil {
		return nil, err
	}
	src := viewerFor(ds, opts)
	snap := src.View()
	rows := MaxRowsEstimate(opts.BatchSize, opts.Fanouts, int(snap.NumNodes()))
	e := &Salient{
		ds:       ds,
		opts:     opts,
		store:    st,
		arenas:   newArenaPool(opts.InFlight, rows, ds.FeatDim, opts.BatchSize),
		samplers: make([]*sampler.Sampler, opts.Workers),
		graph:    src,
		snap:     snap,
		rows:     rows,
	}
	if opts.Fused != slicing.AggNone {
		fg, ok := st.(store.FusedGatherer)
		if !ok {
			return nil, fmt.Errorf("prep: fused pipeline requested but store %T has no fused gather", st)
		}
		e.fused = fg
	}
	for w := range e.samplers {
		e.samplers[w] = sampler.New(snap, opts.Fanouts, opts.Sampler)
	}
	return e, nil
}

// Run starts one epoch over the given seed set and returns the stream of
// prepared batches. Each worker owns a private fast sampler; an idle worker
// claims the next batch index from a shared atomic counter, which balances
// load dynamically (paper §4.2).
func (e *Salient) Run(seeds []int32, epochSeed uint64) *Stream {
	if !e.running.CompareAndSwap(false, true) {
		panic("prep: Run called while a previous epoch is still preparing (drain the stream first)") //lint:allow panicdiscipline API misuse guard: overlapping Runs would corrupt the arena pool accounting
	}
	// Pin ONE view for the whole epoch: every worker samples this exact
	// topology version, so mid-epoch updates to a dynamic graph change
	// nothing until the next Run — FixedOrder/DDP striping determinism is a
	// property of the pin. The previous stream is fully drained here (the
	// running flag), so retargeting the persistent samplers is safe, and the
	// arena pool is only regrown (all arenas are home) when node growth
	// raised the worst-case staged row count.
	if snap := e.graph.View(); snap != e.snap {
		e.snap = snap
		for _, sm := range e.samplers {
			sm.Retarget(snap)
		}
		if rows := MaxRowsEstimate(e.opts.BatchSize, e.opts.Fanouts, int(snap.NumNodes())); rows > e.rows {
			e.arenas = newArenaPool(e.opts.InFlight, rows, e.ds.FeatDim, e.opts.BatchSize)
			e.rows = rows
		}
	}
	perm := e.opts.epochPerm(seeds, epochSeed)
	nb := NumBatches(len(perm), e.opts.BatchSize)

	var next atomic.Int64
	raw := make(chan *Batch, e.opts.InFlight)
	s := &Stream{
		Graph:         e.snap,
		workerBusy:    make([]time.Duration, e.opts.Workers),
		workerBatches: make([]int, e.opts.Workers),
	}
	out := raw
	if e.opts.Ordered {
		out = reorder(s, raw, nb, e.opts.InFlight)
	}
	s.C = out

	var workers sync.WaitGroup
	for w := 0; w < e.opts.Workers; w++ {
		workers.Add(1)
		s.wg.Add(1)
		go func(w int) {
			defer workers.Done()
			defer s.wg.Done()
			sm := e.samplers[w]
			r := rng.New(0) // reseeded per batch (BatchSeed), never reallocated
			for {
				// Acquire an arena BEFORE claiming a batch index: the
				// arena-holding worker then claims the lowest unclaimed
				// index, so the emission cursor's batch is never starved of
				// a buffer by higher-index batches (see the arenas field).
				ar := e.arenas.get()
				idx := int(next.Add(1) - 1)
				if idx >= nb {
					e.arenas.put(ar)
					return
				}
				start := time.Now()
				b := e.prepare(sm, r, ar, perm, epochSeed, idx)
				if b.Err != nil {
					s.setErr(b.Err)
				}
				s.workerBusy[w] += time.Since(start)
				s.workerBatches[w]++
				raw <- b
			}
		}(w)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		workers.Wait()
		// The persistent samplers are idle again once every worker has
		// exited; only then may the next epoch start.
		e.running.Store(false)
		close(raw)
	}()
	return s
}

// prepare builds batch idx end-to-end inside arena ar: sample straight into
// the arena's MFG buffers (no clone — the arena, not the sampler, owns the
// output), then gather features and labels through the store into the
// arena's pinned buffer. A seed rejection or gather rejection comes back as
// an errored batch (still indexed, still carrying its arena for Release)
// rather than a worker panic.
func (e *Salient) prepare(sm *sampler.Sampler, r *rng.Rand, ar *arena, perm []int32, epochSeed uint64, idx int) *Batch {
	seeds := batchSeeds(perm, e.opts.BatchSize, idx)
	gidx := e.opts.globalIndex(idx)
	b := &Batch{Index: idx, GlobalIndex: gidx, Seeds: seeds, ar: ar, owner: e.arenas}
	r.Reseed(BatchSeed(epochSeed, gidx))
	if err := sm.SampleInto(r, seeds, &ar.mfg); err != nil {
		b.Err = err
		return b
	}
	b.MFG = &ar.mfg
	if e.fused != nil {
		// One pass over the stored rows: aggregate and x_target straight
		// from storage, no staged NumSrc×dim tensor.
		if err := e.fused.GatherAggregate(&ar.fused, ar.mfg.NodeIDs, &ar.mfg.Blocks[0], len(seeds), e.opts.Fused); err != nil {
			b.Err = err
			return b
		}
		b.Fused = &ar.fused
		return b
	}
	if err := e.store.Gather(ar.buf, ar.mfg.NodeIDs, len(seeds)); err != nil {
		b.Err = err
		return b
	}
	b.Buf = ar.buf
	return b
}

// reorder re-sequences an unordered batch stream into index order using a
// bounded buffer. Capacity inflight is enough because the executor never has
// more than inflight batches outstanding.
func reorder(s *Stream, in <-chan *Batch, nb, inflight int) chan *Batch {
	out := make(chan *Batch, inflight)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(out)
		pending := make(map[int]*Batch, inflight)
		next := 0
		for b := range in {
			pending[b.Index] = b
			for {
				nb, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				out <- nb
				next++
			}
		}
		for ; next < nb; next++ {
			if b, ok := pending[next]; ok {
				out <- b
			}
		}
	}()
	return out
}

// PyG is the DataLoader-model executor: static batch assignment, sampling
// only in workers, an IPC copy of every sampled MFG, and consumer-side
// striped-parallel slicing into arena-pooled pinned buffers.
type PyG struct {
	ds     *dataset.Dataset
	opts   Options
	store  store.FeatureStore
	arenas *arenaPool // only each arena's pinned buffer is used
	graph  graph.Viewer
	snap   graph.View
	rows   int
}

// NewPyG builds a PyG-style executor over ds. The fused pipeline is not
// offered: PyG models the reference DataLoader baseline, whose slicing and
// first-layer aggregation are separate passes by construction.
func NewPyG(ds *dataset.Dataset, opts Options) (*PyG, error) {
	if opts.Fused != slicing.AggNone {
		return nil, fmt.Errorf("prep: the PyG executor has no fused gather+aggregate pipeline (use the Salient executor)")
	}
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	st, err := storeFor(ds, opts)
	if err != nil {
		return nil, err
	}
	src := viewerFor(ds, opts)
	snap := src.View()
	rows := MaxRowsEstimate(opts.BatchSize, opts.Fanouts, int(snap.NumNodes()))
	return &PyG{
		ds:     ds,
		opts:   opts,
		store:  st,
		arenas: newArenaPool(opts.InFlight, rows, ds.FeatDim, opts.BatchSize),
		graph:  src,
		snap:   snap,
		rows:   rows,
	}, nil
}

// Run starts one epoch. Worker w samples batches w, w+P, w+2P, … (the
// DataLoader's static round-robin assignment, which cannot rebalance when
// neighborhood sizes vary); each sampled MFG is deep-copied once to model
// worker→main IPC. The consumer goroutine then slices each batch in index
// order with the striped-parallel kernel before emitting it, as the main
// process does in the reference workflow (Listing 1, line 3).
func (e *PyG) Run(seeds []int32, epochSeed uint64) *Stream {
	// Same epoch-pinning contract as the Salient executor: one pinned view
	// per Run, workers build their per-epoch samplers over it.
	if snap := e.graph.View(); snap != e.snap {
		e.snap = snap
		if rows := MaxRowsEstimate(e.opts.BatchSize, e.opts.Fanouts, int(snap.NumNodes())); rows > e.rows {
			e.arenas = newArenaPool(e.opts.InFlight, rows, e.ds.FeatDim, e.opts.BatchSize)
			e.rows = rows
		}
	}
	snap := e.snap
	perm := e.opts.epochPerm(seeds, epochSeed)
	nb := NumBatches(len(perm), e.opts.BatchSize)
	p := e.opts.Workers

	type sampled struct {
		idx   int
		seeds []int32
		m     *mfg.MFG
	}
	raw := make(chan sampled, e.opts.InFlight)
	s := &Stream{
		Graph:         snap,
		workerBusy:    make([]time.Duration, p),
		workerBatches: make([]int, p),
	}
	out := make(chan *Batch, e.opts.InFlight)
	s.C = out

	var workers sync.WaitGroup
	for w := 0; w < p; w++ {
		workers.Add(1)
		s.wg.Add(1)
		go func(w int) {
			defer workers.Done()
			defer s.wg.Done()
			sm := sampler.New(snap, e.opts.Fanouts, e.opts.Sampler)
			for idx := w; idx < nb; idx += p {
				start := time.Now()
				sd := batchSeeds(perm, e.opts.BatchSize, idx)
				// The first Clone copies the MFG out of sampler scratch into
				// one allocation the batch owns; the second models pickling
				// across the worker→main process boundary. Only the PyG
				// executor pays these copies: the SALIENT executor samples
				// straight into its recycled batch arenas.
				m := sm.Sample(BatchRNG(epochSeed, e.opts.globalIndex(idx)), sd).Clone()
				sb := sampled{idx: idx, seeds: sd, m: m.Clone()}
				s.workerBusy[w] += time.Since(start)
				s.workerBatches[w]++
				raw <- sb
			}
		}(w)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		workers.Wait()
		close(raw)
	}()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(out)
		pending := make(map[int]sampled, e.opts.InFlight)
		next := 0
		for sb := range raw {
			pending[sb.idx] = sb
			for {
				b, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				sb := e.slice(b.idx, b.seeds, b.m)
				if sb.Err != nil {
					s.setErr(sb.Err)
				}
				out <- sb
				next++
			}
		}
	}()
	return s
}

// slice stages one batch through the store. Stores that support static
// stripes (StripedGatherer) gather with the striped-parallel kernel running
// the stripes concurrently (PyTorch's OpenMP-parallel indexing); others
// fall back to the serial gather. A gather rejection comes back as an
// errored batch (still carrying its arena for Release) rather than a
// consumer panic.
func (e *PyG) slice(idx int, seeds []int32, m *mfg.MFG) *Batch {
	ar := e.arenas.get()
	b := &Batch{Index: idx, GlobalIndex: e.opts.globalIndex(idx), Seeds: seeds, MFG: m, ar: ar, owner: e.arenas}
	var err error
	if sg, ok := e.store.(store.StripedGatherer); ok {
		err = sg.GatherStriped(ar.buf, m.NodeIDs, len(seeds), e.opts.Workers, func(stripes []func()) {
			var wg sync.WaitGroup
			for _, st := range stripes {
				wg.Add(1)
				go func(st func()) {
					defer wg.Done()
					st()
				}(st)
			}
			wg.Wait()
		})
	} else {
		err = e.store.Gather(ar.buf, m.NodeIDs, len(seeds))
	}
	if err != nil {
		b.Err = err
		return b
	}
	b.Buf = ar.buf
	return b
}
