package ddp

import (
	"fmt"
	"sync"
	"time"

	"salient/internal/dataset"
	"salient/internal/graph"
	"salient/internal/nn"
	"salient/internal/prep"
	"salient/internal/sampler"
	"salient/internal/store"
	"salient/internal/train"
)

// StepsFor returns the number of synchronized gradient steps an epoch of nb
// global batches takes on R replicas — the even split of the global batch
// count shared by the cost-model simulators and the executing Trainer.
func StepsFor(nb, replicas int) int {
	return (nb + replicas - 1) / replicas
}

// ShardSeeds returns replica r's deterministic shard of the globally
// shuffled epoch permutation: the concatenation of per-replica batches
// (consecutive chunks of batchSize seeds) r, r+R, r+2R, … Step s of the
// epoch is the union of chunk s·R+r across replicas, so the R shards union,
// in schedule order, to the single-replica epoch. The executing Trainer,
// the serial Union oracle, and the simulators all follow this scheme.
func ShardSeeds(perm []int32, batchSize, r, replicas int) []int32 {
	nb := prep.NumBatches(len(perm), batchSize)
	var out []int32
	for c := r; c < nb; c += replicas {
		lo := c * batchSize
		hi := lo + batchSize
		if hi > len(perm) {
			hi = len(perm)
		}
		out = append(out, perm[lo:hi]...)
	}
	return out
}

// TrainConfig configures the executing data-parallel trainer. The embedded
// train.Config carries the per-replica hyperparameters; BatchSize is the
// PER-REPLICA batch size, so the effective batch grows with the replica
// count exactly as the paper scales it (§6). Only the SALIENT executor is
// supported; Config.Executor is ignored.
type TrainConfig struct {
	train.Config

	// Replicas is the data-parallel width R. Must be at least 1.
	Replicas int
	// Stores optionally gives each replica its own feature store
	// (len == Replicas), e.g. one shard or cache per simulated device — or,
	// in the distributed setting, each replica's store.Remote over its own
	// partition. Nil shares Config.Store across replicas (or one flat store
	// when that is nil too). Store choice never changes batch contents, so
	// it never changes training results either.
	Stores []store.FeatureStore
	// Graphs optionally gives each replica its own pinned topology view
	// (len == Replicas) — the distributed setting, where replica r samples
	// a *graph.Partitioned serving partition r locally and fetching the
	// rest over a transport. All views must be at one version; they replace
	// the shared epoch pin (the views are already pinned), and because a
	// partitioned view answers adjacency identically to the full graph,
	// distributed training stays bit-identical to the single-host schedule.
	// Mutually exclusive with Config.Graph.
	Graphs []graph.Viewer
}

// ReplicaStats is one replica's accounting for an executed epoch.
type ReplicaStats struct {
	Batches  int
	PrepWait time.Duration // blocked waiting on batch preparation
	Compute  time.Duration // decode + forward/backward + optimizer step
	SyncWait time.Duration // blocked at step barriers (straggler time)
}

// TrainStats summarizes one executed data-parallel epoch.
type TrainStats struct {
	Epoch     int
	Replicas  int
	Steps     int     // synchronized gradient steps (StepsFor)
	Batches   int     // batches consumed across all replicas
	Loss      float64 // mean NLL over all batches
	Acc       float64 // training accuracy over all seed rows
	NodesSeen int
	EdgesSeen int

	Wall     time.Duration
	Compute  time.Duration // max over replicas
	PrepWait time.Duration // max over replicas
	SyncWait time.Duration // max over replicas

	PerReplica []ReplicaStats
}

// SyncFraction returns the slowest-waiting replica's barrier time as a
// fraction of epoch wall time — the executed counterpart of the simulator's
// exposed all-reduce share.
func (s TrainStats) SyncFraction() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.SyncWait) / float64(s.Wall)
}

// replica is one data-parallel worker: a model copy, its optimizer, its own
// batch-preparation executor, and its decode scratch.
type replica struct {
	model   nn.Model
	params  []*nn.Param
	buffers [][]float32 // BatchNorm running stats, nil when the arch has none
	opt     *nn.Adam
	exec    *prep.Salient
	store   store.FeatureStore
	dec     train.Decoder
	pred    []int32
}

// Trainer executes real data-parallel training: R model replicas run
// concurrently, each feeding from its own prep executor stream over its
// deterministic shard of the epoch, synchronized once per step by a
// gradient average (AverageGradients) followed by identical per-replica
// optimizer steps — the executing counterpart of SimulateEpoch's cost
// model, with the same replica/seed partitioning scheme.
//
// Determinism: batch contents are keyed by (epoch seed, global batch
// index), dropout is re-keyed per batch the same way, gradients are
// averaged in replica order, and every replica applies the same update to
// identical optimizer state — so training is bit-reproducible across runs
// and bit-identical to the serial Union oracle, no matter how the replicas'
// goroutines interleave.
type Trainer struct {
	DS  *dataset.Dataset
	Cfg TrainConfig

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

// validate normalizes cfg and rejects inconsistent settings.
func (cfg *TrainConfig) validate() error {
	cfg.Config.Defaults()
	if cfg.Replicas < 1 {
		return fmt.Errorf("ddp: need at least one replica, got %d", cfg.Replicas)
	}
	if len(cfg.Fanouts) != cfg.Layers {
		return fmt.Errorf("ddp: %d fanouts for %d layers", len(cfg.Fanouts), cfg.Layers)
	}
	if cfg.Stores != nil && len(cfg.Stores) != cfg.Replicas {
		return fmt.Errorf("ddp: %d per-replica stores for %d replicas", len(cfg.Stores), cfg.Replicas)
	}
	if cfg.Graphs != nil {
		if len(cfg.Graphs) != cfg.Replicas {
			return fmt.Errorf("ddp: %d per-replica graphs for %d replicas", len(cfg.Graphs), cfg.Replicas)
		}
		if cfg.Graph != nil {
			return fmt.Errorf("ddp: per-replica Graphs and a shared Graph are mutually exclusive")
		}
		v := cfg.Graphs[0].View().Version()
		for r, g := range cfg.Graphs {
			if gv := g.View().Version(); gv != v {
				return fmt.Errorf("ddp: replica %d's graph view is at version %d, replica 0's at %d — one epoch must sample one version", r, gv, v)
			}
		}
	}
	return nil
}

// newReplica builds replica r: an identically initialized model (same seed,
// same init RNG), its own optimizer, and a prep executor striped so its
// local batches land on global epoch indices r, r+R, r+2R, …
func newReplica(ds *dataset.Dataset, cfg TrainConfig, pin graph.Viewer, r int) (*replica, error) {
	st := cfg.Store
	if cfg.Stores != nil {
		st = cfg.Stores[r]
	}
	if cfg.Graphs != nil {
		pin = cfg.Graphs[r] // already a pinned view; no shared epoch pin
	}
	model, err := train.NewModel(cfg.Arch, nn.ModelConfig{
		In:     ds.FeatDim,
		Hidden: cfg.Hidden,
		Out:    ds.NumClasses,
		Layers: cfg.Layers,
		Seed:   cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	opt := nn.NewAdam(model.Params(), cfg.LR)
	exec, err := prep.NewSalient(ds, prep.Options{
		Workers:     cfg.Workers,
		BatchSize:   cfg.BatchSize,
		Fanouts:     cfg.Fanouts,
		Sampler:     sampler.FastConfig(),
		Ordered:     true,
		Store:       st,
		Graph:       pin,
		FixedOrder:  true,
		IndexBase:   r,
		IndexStride: cfg.Replicas,
	})
	if err != nil {
		return nil, err
	}
	rep := &replica{
		model:  model,
		params: model.Params(),
		opt:    opt,
		exec:   exec,
		store:  st,
		pred:   make([]int32, cfg.BatchSize),
	}
	if bm, ok := model.(nn.BufferModel); ok {
		rep.buffers = bm.StatBuffers()
	}
	return rep, nil
}

// NewTrainer builds an executing data-parallel trainer over ds.
func NewTrainer(ds *dataset.Dataset, cfg TrainConfig) (*Trainer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Store == nil && cfg.Stores == nil {
		cfg.Store = store.NewFlat(ds) // one store shared by all replicas
	}
	t := &Trainer{DS: ds, Cfg: cfg}
	var pin graph.Viewer
	if cfg.Graph != nil {
		t.pin = newEpochPin(cfg.Graph)
		pin = t.pin
	}
	for r := 0; r < cfg.Replicas; r++ {
		rep, err := newReplica(ds, cfg, pin, r)
		if err != nil {
			return nil, err
		}
		t.reps = append(t.reps, rep)
	}
	// The DDP broadcast at initialization. Replicas are already identical
	// (same init seed), but the broadcast keeps the invariant explicit.
	SyncParams(t.paramSets())
	t.broadcastBuffers()
	return t, nil
}

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

// Model returns the leader replica's model. After a successful epoch every
// replica's parameters are bit-identical, so the leader speaks for all.
func (t *Trainer) Model() nn.Model { return t.reps[0].model }

// FeatureStore returns the store replica r gathers through.
func (t *Trainer) FeatureStore(r int) store.FeatureStore { return t.reps[r].store }

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

// TrainEpoch executes one synchronized data-parallel epoch. The first
// batch-preparation failure on any replica cancels the epoch on every
// replica cleanly (streams drained, buffers released) and is returned.
func (t *Trainer) TrainEpoch(epoch int) (TrainStats, error) {
	R := len(t.reps)
	if t.pin != nil {
		// Adopt the dynamic graph's latest state once for all R replicas.
		t.pin.repin()
	}
	epochSeed := train.EpochSeed(t.Cfg.Seed, epoch)
	perm := prep.EpochPerm(t.DS.Train, epochSeed)
	nb := prep.NumBatches(len(perm), t.Cfg.BatchSize)
	steps := StepsFor(nb, R)

	type repAcc struct {
		stats         ReplicaStats
		lossSum       float64
		correct, rows int
		nodes, edges  int
	}
	accs := make([]repAcc, R)
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
			shard := ShardSeeds(perm, t.Cfg.BatchSize, r, R)
			mySteps := prep.NumBatches(len(shard), t.Cfg.BatchSize)
			stream := rep.exec.Run(shard, epochSeed)
			defer drainStream(stream)
			for s := 0; s < steps; s++ {
				if s < mySteps {
					waitStart := time.Now()
					b, ok := <-stream.C
					if !ok {
						arrive <- arrival{r, fmt.Errorf("ddp: replica %d stream ended at step %d of %d", r, s, mySteps)}
						<-resume[r]
						return
					}
					acc.stats.PrepWait += time.Since(waitStart)
					if b.Err != nil {
						b.Release()
						arrive <- arrival{r, fmt.Errorf("ddp: replica %d: %w", r, b.Err)}
						<-resume[r]
						return
					}
					cStart := time.Now()
					res := train.ReplicaStep(rep.model, &rep.dec, b, epochSeed, rep.pred)
					b.Release()
					acc.lossSum += res.Loss
					acc.correct += res.Correct
					acc.rows += res.Rows
					acc.nodes += res.Nodes
					acc.edges += res.Edges
					acc.stats.Batches++
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
		AverageGradients(params[:p])
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

	st := TrainStats{
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
		if a.stats.Compute > st.Compute {
			st.Compute = a.stats.Compute
		}
		if a.stats.PrepWait > st.PrepWait {
			st.PrepWait = a.stats.PrepWait
		}
		if a.stats.SyncWait > st.SyncWait {
			st.SyncWait = a.stats.SyncWait
		}
	}
	st.Wall = time.Since(start)
	if st.Batches > 0 {
		st.Loss /= float64(st.Batches)
	}
	if rows > 0 {
		st.Acc = float64(correct) / float64(rows)
	}
	return st, firstErr
}

// Fit executes n epochs, stopping at the first preparation failure.
func (t *Trainer) Fit(epochs int) ([]TrainStats, error) {
	out := make([]TrainStats, 0, epochs)
	for e := 0; e < epochs; e++ {
		s, err := t.TrainEpoch(e)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Union is the serial single-replica oracle for Trainer: it executes the
// identical union batch schedule on one model with one executor and one
// goroutine, accumulating each step's R shard gradients and averaging them
// with the same arithmetic (AverageGradients over stashed gradient sets, in
// replica order) before one optimizer step. Because batch contents, dropout
// keys, averaging order, and optimizer state all match, Trainer's final
// parameters are bit-identical to Union's — the full-loop generalization of
// the averaged-shard-equals-union-batch gradient property.
type Union struct {
	DS  *dataset.Dataset
	Cfg TrainConfig

	model  nn.Model
	params []*nn.Param
	opt    *nn.Adam
	exec   *prep.Salient
	dec    train.Decoder
	pred   []int32
	stash  [][]*nn.Param // R gradient stash sets mirroring params
}

// NewUnion builds the serial union-schedule oracle for cfg.
func NewUnion(ds *dataset.Dataset, cfg TrainConfig) (*Union, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	model, err := train.NewModel(cfg.Arch, nn.ModelConfig{
		In:     ds.FeatDim,
		Hidden: cfg.Hidden,
		Out:    ds.NumClasses,
		Layers: cfg.Layers,
		Seed:   cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	opt := nn.NewAdam(model.Params(), cfg.LR)
	exec, err := prep.NewSalient(ds, prep.Options{
		Workers:   cfg.Workers,
		BatchSize: cfg.BatchSize,
		Fanouts:   cfg.Fanouts,
		Sampler:   sampler.FastConfig(),
		Ordered:   true,
		Store:     cfg.Store,
		Graph:     cfg.Graph,
	})
	if err != nil {
		return nil, err
	}
	u := &Union{
		DS:     ds,
		Cfg:    cfg,
		model:  model,
		params: model.Params(),
		opt:    opt,
		exec:   exec,
		pred:   make([]int32, cfg.BatchSize),
	}
	for r := 0; r < cfg.Replicas; r++ {
		mirror := make([]*nn.Param, len(u.params))
		for i, p := range u.params {
			mirror[i] = &nn.Param{Name: p.Name, G: p.G.Clone()}
		}
		u.stash = append(u.stash, mirror)
	}
	return u, nil
}

// Model returns the oracle's model.
func (u *Union) Model() nn.Model { return u.model }

// TrainEpoch runs one epoch of the union schedule: batches arrive in global
// order; every R consecutive batches (fewer on the final partial step) form
// one gradient-accumulation step.
func (u *Union) TrainEpoch(epoch int) (TrainStats, error) {
	R := u.Cfg.Replicas
	epochSeed := train.EpochSeed(u.Cfg.Seed, epoch)
	nb := prep.NumBatches(len(u.DS.Train), u.Cfg.BatchSize)
	st := TrainStats{
		Epoch:      epoch,
		Replicas:   R,
		Steps:      StepsFor(nb, R),
		PerReplica: make([]ReplicaStats, 1),
	}

	start := time.Now()
	stream := u.exec.Run(u.DS.Train, epochSeed)
	var firstErr error
	var correct, rows, got int
	for {
		waitStart := time.Now()
		b, ok := <-stream.C
		if !ok {
			break
		}
		st.PrepWait += time.Since(waitStart)
		if b.Err != nil || firstErr != nil {
			if firstErr == nil {
				firstErr = b.Err
			}
			b.Release()
			continue
		}
		cStart := time.Now()
		res := train.ReplicaStep(u.model, &u.dec, b, epochSeed, u.pred)
		last := b.Index == nb-1
		b.Release()
		for i, p := range u.params {
			u.stash[got][i].G.Copy(p.G)
		}
		got++
		st.Loss += res.Loss
		correct += res.Correct
		rows += res.Rows
		st.NodesSeen += res.Nodes
		st.EdgesSeen += res.Edges
		st.Batches++
		if got == R || last {
			AverageGradients(u.stash[:got])
			for i, p := range u.params {
				p.G.Copy(u.stash[0][i].G)
			}
			u.opt.Step(u.params)
			got = 0
		}
		st.Compute += time.Since(cStart)
	}
	stream.Wait()
	if firstErr == nil {
		firstErr = stream.Err()
	}
	st.Wall = time.Since(start)
	st.PerReplica[0] = ReplicaStats{Batches: st.Batches, PrepWait: st.PrepWait, Compute: st.Compute}
	if st.Batches > 0 {
		st.Loss /= float64(st.Batches)
	}
	if rows > 0 {
		st.Acc = float64(correct) / float64(rows)
	}
	return st, firstErr
}

// Fit runs n epochs of the union schedule.
func (u *Union) Fit(epochs int) ([]TrainStats, error) {
	out := make([]TrainStats, 0, epochs)
	for e := 0; e < epochs; e++ {
		s, err := u.TrainEpoch(e)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}
