// Package train runs real mini-batch GNN training over the prep executors:
// models genuinely fit (loss decreases, accuracy rises), so the paper's
// accuracy experiments (Table 6, Figures 3 and 6) are live experiments here
// rather than replayed numbers.
//
// One loop trains at every replica count. Trainer runs R data-parallel
// replicas (paper §6, Figure 5) in goroutines, each feeding from its own
// prep executor over its shard of the epoch (ddp.ShardSeeds), synchronized
// once per step by a gradient average (ddp.AverageGradients) and identical
// per-replica optimizer steps; R = 1 is single-replica training. Union is
// its serial oracle: R-replica training is bit-identical to the union batch
// schedule run on one model.
//
// Wall-clock timing in this package is real but machine-local; the paper's
// full-scale timing claims are reproduced separately by the calibrated
// virtual-time simulations in internal/pipeline and internal/ddp.
package train

import (
	"fmt"
	"sync"
	"time"

	"salient/internal/dataset"
	"salient/internal/ddp"
	"salient/internal/graph"
	"salient/internal/nn"
	"salient/internal/prep"
	"salient/internal/sampler"
	"salient/internal/store"
)

// ExecutorKind selects the batch-preparation data path.
type ExecutorKind int

const (
	ExecSalient ExecutorKind = iota // shared-memory workers, dynamic balancing
	ExecPyG                         // DataLoader model: static split + IPC copy
)

func (k ExecutorKind) String() string {
	if k == ExecPyG {
		return "pyg"
	}
	return "salient"
}

// Config are the training hyperparameters (paper Table 5 defaults).
type Config struct {
	Arch    string // "SAGE", "GAT", "GIN" or "SAGE-RI"
	Hidden  int
	Layers  int
	Fanouts []int // training fanouts, Fanouts[0] for GNN layer 1
	// BatchSize is the PER-REPLICA batch size, so the effective batch grows
	// with the replica count exactly as the paper scales it (§6).
	BatchSize int
	LR        float64
	Workers   int // preparation workers per replica
	Executor  ExecutorKind
	Seed      uint64

	// Store is the feature-access layer the executors gather batches
	// through. Nil selects one flat store over the dataset, shared by every
	// replica; sharded and cached stores change transfer accounting, never
	// batch contents.
	Store store.FeatureStore
	// Fused runs the fused gather+aggregate pipeline: the executor
	// pre-reduces the first layer's aggregate during the gather and the
	// model consumes it via nn.FusedModel.ForwardFused. Requires the
	// Salient executor, an architecture whose first layer mean/sum
	// aggregates (SAGE or GIN), and a store implementing
	// store.FusedGatherer. Training is bit-identical to the staged path.
	Fused bool
	// Graph is the topology source training samples against. Nil trains on
	// the dataset's static graph; a *graph.Dynamic is pinned once per epoch
	// for all replicas together (train-while-updating: updates applied
	// mid-epoch take effect at the next epoch boundary). With zero applied
	// deltas training is bit-identical to the static baseline.
	Graph graph.Viewer

	// Replicas is the data-parallel width R; 0 means 1.
	Replicas int
	// Stores optionally gives each replica its own feature store
	// (len == Replicas), e.g. one shard or cache per simulated device — or,
	// in the distributed setting, each replica's store.Remote over its own
	// partition. Nil shares Store across replicas. Store choice never
	// changes batch contents, so it never changes training results either.
	Stores []store.FeatureStore
	// Graphs optionally gives each replica its own pinned topology view
	// (len == Replicas) — the distributed setting, where replica r samples
	// a *graph.Partitioned serving partition r locally and fetching the
	// rest over a transport. All views must be at one version; they replace
	// the shared epoch pin (the views are already pinned), and because a
	// partitioned view answers adjacency identically to the full graph,
	// distributed training stays bit-identical to the single-host schedule.
	// Mutually exclusive with Graph.
	Graphs []graph.Viewer
}

// Defaults fills unset fields with the paper's GraphSAGE settings.
func (c *Config) Defaults() {
	if c.Arch == "" {
		c.Arch = "SAGE"
	}
	if c.Hidden == 0 {
		c.Hidden = 256
	}
	if c.Layers == 0 {
		c.Layers = 3
	}
	if len(c.Fanouts) == 0 {
		c.Fanouts = []int{15, 10, 5}
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1024
	}
	if c.LR == 0 {
		c.LR = 3e-3
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
}

// normalize fills defaults, rejects inconsistent settings, and gives the
// replicas one shared flat store when no store is configured at all.
func (c *Config) normalize(ds *dataset.Dataset) error {
	c.Defaults()
	if c.Replicas < 1 {
		return fmt.Errorf("train: need at least one replica, got %d", c.Replicas)
	}
	if len(c.Fanouts) != c.Layers {
		return fmt.Errorf("train: %d fanouts for %d layers", len(c.Fanouts), c.Layers)
	}
	if c.Stores != nil && len(c.Stores) != c.Replicas {
		return fmt.Errorf("train: %d per-replica stores for %d replicas", len(c.Stores), c.Replicas)
	}
	if c.Graphs != nil {
		if len(c.Graphs) != c.Replicas {
			return fmt.Errorf("train: %d per-replica graphs for %d replicas", len(c.Graphs), c.Replicas)
		}
		if c.Graph != nil {
			return fmt.Errorf("train: per-replica Graphs and a shared Graph are mutually exclusive")
		}
		v := c.Graphs[0].View().Version()
		for r, g := range c.Graphs {
			if gv := g.View().Version(); gv != v {
				return fmt.Errorf("train: replica %d's graph view is at version %d, replica 0's at %d — one epoch must sample one version", r, gv, v)
			}
		}
	}
	if c.Store == nil && c.Stores == nil {
		c.Store = store.NewFlat(ds)
	}
	return nil
}

// NewModel constructs the named architecture from the paper's appendix.
func NewModel(arch string, cfg nn.ModelConfig) (nn.Model, error) {
	switch arch {
	case "SAGE":
		return nn.NewGraphSAGE(cfg), nil
	case "GAT":
		return nn.NewGAT(cfg), nil
	case "GIN":
		return nn.NewGIN(cfg), nil
	case "SAGE-RI":
		return nn.NewSAGERI(cfg), nil
	}
	return nil, fmt.Errorf("train: unknown architecture %q", arch)
}

// ReplicaStats is one replica's accounting for an epoch.
type ReplicaStats struct {
	Batches  int
	PrepWait time.Duration // blocked waiting on batch preparation
	Compute  time.Duration // decode + forward/backward + optimizer step
	SyncWait time.Duration // blocked at step barriers (straggler time)
}

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch     int
	Replicas  int
	Steps     int     // synchronized gradient steps (ddp.StepsFor)
	Batches   int     // batches consumed across all replicas
	Loss      float64 // mean NLL over batches
	Acc       float64 // training accuracy over seed nodes
	NodesSeen int     // total expanded-neighborhood rows processed
	EdgesSeen int

	Wall     time.Duration // end-to-end epoch wall time
	PrepWait time.Duration // time blocked waiting on prep, max over replicas
	Compute  time.Duration // forward+backward+step time, max over replicas
	SyncWait time.Duration // barrier time, max over replicas

	PerReplica []ReplicaStats
}

// SyncFraction returns the slowest-waiting replica's barrier time as a
// fraction of epoch wall time — the executed counterpart of the simulator's
// exposed all-reduce share.
func (s EpochStats) SyncFraction() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.SyncWait) / float64(s.Wall)
}

// executor is the batch-preparation side of a replica: prep.Salient or
// prep.PyG.
type executor interface {
	Run(seeds []int32, epochSeed uint64) *prep.Stream
}

// replica is one data-parallel worker: a model, its optimizer, its own
// batch-preparation executor, and its decode scratch.
type replica struct {
	model   nn.Model
	params  []*nn.Param
	buffers [][]float32 // BatchNorm running stats, nil when the arch has none
	opt     *nn.Adam
	exec    executor
	store   store.FeatureStore
	dec     Decoder
	pred    []int32
}

// newReplica builds a model initialized from cfg.Seed (so every replica
// starts identical), its optimizer, and the executor cfg names, gathering
// through st and sampling g. The executor takes its seed list in the
// caller's order and places local batch i at global epoch index
// base+i·stride, so R replicas striped as (r, R) prepare exactly the
// batches one executor would prepare for the whole epoch.
func newReplica(ds *dataset.Dataset, cfg Config, st store.FeatureStore, g graph.Viewer, base, stride int) (*replica, error) {
	model, err := NewModel(cfg.Arch, nn.ModelConfig{
		In:     ds.FeatDim,
		Hidden: cfg.Hidden,
		Out:    ds.NumClasses,
		Layers: cfg.Layers,
		Seed:   cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	opts := prep.Options{
		Workers:     cfg.Workers,
		BatchSize:   cfg.BatchSize,
		Fanouts:     cfg.Fanouts,
		Ordered:     true, // bit-reproducible training
		Store:       st,
		Graph:       g,
		FixedOrder:  true,
		IndexBase:   base,
		IndexStride: stride,
	}
	if cfg.Fused {
		fm, ok := model.(nn.FusedModel)
		if !ok {
			return nil, fmt.Errorf("train: -fused needs a mean/sum first layer; %s has no fused forward (use SAGE or GIN)", cfg.Arch)
		}
		if cfg.Executor != ExecSalient {
			return nil, fmt.Errorf("train: the fused pipeline requires the salient executor")
		}
		opts.Fused = fm.FusedOp()
	}
	params := model.Params()
	rep := &replica{
		model:  model,
		params: params,
		opt:    nn.NewAdam(params, cfg.LR),
		store:  st,
		pred:   make([]int32, cfg.BatchSize),
	}
	switch cfg.Executor {
	case ExecSalient:
		opts.Sampler = sampler.FastConfig()
		rep.exec, err = prep.NewSalient(ds, opts)
	case ExecPyG:
		opts.Sampler = sampler.BaselineConfig()
		rep.exec, err = prep.NewPyG(ds, opts)
	default:
		err = fmt.Errorf("train: unknown executor %v", cfg.Executor)
	}
	if err != nil {
		return nil, err
	}
	if bm, ok := model.(nn.BufferModel); ok {
		rep.buffers = bm.StatBuffers()
	}
	return rep, nil
}

// Trainer executes mini-batch training on R model replicas: they run
// concurrently, each feeding from its own prep executor stream over its
// deterministic shard of the epoch, synchronized once per step by a
// gradient average followed by identical per-replica optimizer steps — the
// executing counterpart of ddp.SimulateEpoch's cost model, with the same
// replica/seed partitioning scheme.
//
// Determinism: batch contents are keyed by (epoch seed, global batch
// index), dropout is re-keyed per batch the same way, gradients are
// averaged in replica order, and every replica applies the same update to
// identical optimizer state — so training is bit-reproducible across runs
// and bit-identical to the serial Union oracle, no matter how the replicas'
// goroutines interleave.
type Trainer struct {
	DS *dataset.Dataset
	// Model is replica 0's model. After a successful epoch every replica's
	// parameters are bit-identical, so the leader speaks for all.
	Model nn.Model
	Cfg   Config

	reps []*replica
	// pin re-pins Cfg.Graph once per epoch and hands every replica's
	// executor the SAME snapshot: R striped executors over one epoch must
	// sample one topology version or their union would diverge from the
	// serial oracle. Nil when training the static dataset graph.
	pin *epochPin
}

// epochPin is a Viewer that freezes its source's latest view at explicit
// re-pin points (epoch starts) instead of on every View call.
type epochPin struct {
	mu  sync.Mutex
	src graph.Viewer
	cur graph.View
}

func newEpochPin(src graph.Viewer) *epochPin {
	return &epochPin{src: src, cur: src.View()}
}

// View returns the currently pinned view (NOT the source's latest).
func (p *epochPin) View() graph.View {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur
}

// repin adopts the source's latest view for the next epoch.
func (p *epochPin) repin() {
	snap := p.src.View()
	p.mu.Lock()
	p.cur = snap
	p.mu.Unlock()
}

// New builds a trainer over ds. Fanout length must equal the layer count.
func New(ds *dataset.Dataset, cfg Config) (*Trainer, error) {
	if err := cfg.normalize(ds); err != nil {
		return nil, err
	}
	t := &Trainer{DS: ds, Cfg: cfg}
	var pin graph.Viewer
	if cfg.Graph != nil {
		t.pin = newEpochPin(cfg.Graph)
		pin = t.pin
	}
	for r := 0; r < cfg.Replicas; r++ {
		st, g := cfg.Store, pin
		if cfg.Stores != nil {
			st = cfg.Stores[r]
		}
		if cfg.Graphs != nil {
			g = cfg.Graphs[r] // already a pinned view; no shared epoch pin
		}
		rep, err := newReplica(ds, cfg, st, g, r, cfg.Replicas)
		if err != nil {
			return nil, err
		}
		t.reps = append(t.reps, rep)
	}
	t.Model = t.reps[0].model
	// The DDP broadcast at initialization. Replicas are already identical
	// (same init seed), but the broadcast keeps the invariant explicit.
	ddp.SyncParams(t.paramSets())
	t.broadcastBuffers()
	return t, nil
}

// FeatureStore returns the store replica 0 reads features through, for
// transfer-accounting inspection.
func (t *Trainer) FeatureStore() store.FeatureStore { return t.reps[0].store }

// broadcastBuffers copies the leader's BatchNorm running statistics into
// every other replica (PyTorch DDP's broadcast_buffers semantics). Running
// stats take no gradients, so the all-reduce never touches them; without
// the broadcast each replica's eval-mode statistics would see only its own
// shard. Called from the coordinator while every replica is parked at the
// step barrier, and once at construction.
func (t *Trainer) broadcastBuffers() {
	lead := t.reps[0].buffers
	if lead == nil {
		return
	}
	for _, rep := range t.reps[1:] {
		for i := range lead {
			copy(rep.buffers[i], lead[i])
		}
	}
}

// paramSets returns every replica's parameter list, replica order.
func (t *Trainer) paramSets() [][]*nn.Param {
	ps := make([][]*nn.Param, len(t.reps))
	for r, rep := range t.reps {
		ps[r] = rep.params
	}
	return ps
}

// arrival is one replica's report at a step barrier.
type arrival struct {
	rep int
	err error
}

// drainStream releases every remaining batch of a stream and waits for its
// executor goroutines, so an aborting replica never strands pinned buffers.
func drainStream(s *prep.Stream) {
	for b := range s.C {
		b.Release()
	}
	s.Wait()
}

// epochAcc is one replica's running totals for an epoch.
type epochAcc struct {
	stats         ReplicaStats
	lossSum       float64
	correct, rows int
	nodes, edges  int
}

// add folds one step's results into the totals.
func (a *epochAcc) add(res stepStats) {
	a.lossSum += res.Loss
	a.correct += res.Correct
	a.rows += res.Rows
	a.nodes += res.Nodes
	a.edges += res.Edges
	a.stats.Batches++
}

// TrainEpoch executes one synchronized epoch of mini-batch SGD over the
// training split. The first batch-preparation failure on any replica
// cancels the epoch on every replica cleanly (streams drained, buffers
// released) and is returned instead of panicking inside an executor worker.
func (t *Trainer) TrainEpoch(epoch int) (EpochStats, error) {
	R := len(t.reps)
	if t.pin != nil {
		// Adopt the dynamic graph's latest state once for all R replicas.
		t.pin.repin()
	}
	epochSeed := EpochSeed(t.Cfg.Seed, epoch)
	perm := prep.EpochPerm(t.DS.Train, epochSeed)
	nb := prep.NumBatches(len(perm), t.Cfg.BatchSize)
	steps := ddp.StepsFor(nb, R)

	accs := make([]epochAcc, R)
	arrive := make(chan arrival, R)
	resume := make([]chan bool, R)
	for r := range resume {
		resume[r] = make(chan bool, 1)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < R; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rep := t.reps[r]
			acc := &accs[r]
			shard := ddp.ShardSeeds(perm, t.Cfg.BatchSize, r, R)
			mySteps := prep.NumBatches(len(shard), t.Cfg.BatchSize)
			stream := rep.exec.Run(shard, epochSeed)
			defer drainStream(stream)
			for s := 0; s < steps; s++ {
				if s < mySteps {
					waitStart := time.Now()
					b, ok := <-stream.C
					if !ok {
						arrive <- arrival{r, fmt.Errorf("train: replica %d stream ended at step %d of %d", r, s, mySteps)}
						<-resume[r]
						return
					}
					acc.stats.PrepWait += time.Since(waitStart)
					if b.Err != nil {
						b.Release()
						arrive <- arrival{r, fmt.Errorf("train: replica %d: %w", r, b.Err)}
						<-resume[r]
						return
					}
					cStart := time.Now()
					acc.add(replicaStep(rep.model, &rep.dec, b, epochSeed, rep.pred))
					b.Release()
					acc.stats.Compute += time.Since(cStart)
				}
				// A replica with no batch at the epoch's final partial step
				// still joins the barrier: it contributes no gradient but
				// receives the participants' average (DDP's uneven-input
				// join), so every replica's optimizer advances in lockstep
				// and the replicas stay bit-identical.
				arrive <- arrival{r, nil}
				syncStart := time.Now()
				cont := <-resume[r]
				acc.stats.SyncWait += time.Since(syncStart)
				if !cont {
					return
				}
				uStart := time.Now()
				rep.opt.Step(rep.params)
				acc.stats.Compute += time.Since(uStart)
			}
		}(r)
	}

	// Coordinator: the per-step all-reduce. Every replica arrives once per
	// step; only the first p = min(R, nb−s·R) hold a gradient (the others
	// are final-step idlers). Averaging happens while every replica is
	// parked at the barrier, so no goroutine ever observes a half-averaged
	// gradient.
	var firstErr error
	params := t.paramSets()
	for s := 0; s < steps; s++ {
		p := R
		if rem := nb - s*R; rem < p {
			p = rem
		}
		stepErr := false
		for i := 0; i < R; i++ {
			a := <-arrive
			if a.err != nil {
				stepErr = true
				if firstErr == nil {
					firstErr = a.err
				}
			}
		}
		if stepErr {
			for r := 0; r < R; r++ {
				resume[r] <- false
			}
			break
		}
		ddp.AverageGradients(params[:p])
		for r := p; r < R; r++ {
			for i := range params[0] {
				params[r][i].G.Copy(params[0][i].G)
			}
		}
		t.broadcastBuffers()
		for r := 0; r < R; r++ {
			resume[r] <- true
		}
	}
	wg.Wait()

	st := EpochStats{
		Epoch:      epoch,
		Replicas:   R,
		Steps:      steps,
		PerReplica: make([]ReplicaStats, R),
	}
	var correct, rows int
	for r := range accs {
		a := &accs[r]
		st.PerReplica[r] = a.stats
		st.Batches += a.stats.Batches
		st.Loss += a.lossSum
		correct += a.correct
		rows += a.rows
		st.NodesSeen += a.nodes
		st.EdgesSeen += a.edges
		st.Compute = max(st.Compute, a.stats.Compute)
		st.PrepWait = max(st.PrepWait, a.stats.PrepWait)
		st.SyncWait = max(st.SyncWait, a.stats.SyncWait)
	}
	st.Wall = time.Since(start)
	st.finish(correct, rows)
	return st, firstErr
}

// finish turns the epoch's loss sum and correct count into means.
func (s *EpochStats) finish(correct, rows int) {
	if s.Batches > 0 {
		s.Loss /= float64(s.Batches)
	}
	if rows > 0 {
		s.Acc = float64(correct) / float64(rows)
	}
}

// Fit trains for n epochs and returns per-epoch stats, stopping at the
// first preparation failure.
func (t *Trainer) Fit(epochs int) ([]EpochStats, error) {
	return fit(epochs, t.TrainEpoch)
}

func fit(epochs int, trainEpoch func(int) (EpochStats, error)) ([]EpochStats, error) {
	out := make([]EpochStats, 0, epochs)
	for e := 0; e < epochs; e++ {
		s, err := trainEpoch(e)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}
