// Package train runs real mini-batch GNN training over the prep executors:
// models genuinely fit (loss decreases, accuracy rises), so the paper's
// accuracy experiments (Table 6, Figures 3 and 6) are live experiments here
// rather than replayed numbers.
//
// Wall-clock timing in this package is real but machine-local; the paper's
// full-scale timing claims are reproduced separately by the calibrated
// virtual-time simulations in internal/pipeline and internal/ddp.
package train

import (
	"fmt"
	"time"

	"salient/internal/dataset"
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
	Arch      string // "SAGE", "GAT", "GIN" or "SAGE-RI"
	Hidden    int
	Layers    int
	Fanouts   []int // training fanouts, Fanouts[0] for GNN layer 1
	BatchSize int
	LR        float64
	Workers   int
	Executor  ExecutorKind
	Seed      uint64

	// Store is the feature-access layer the executors gather batches
	// through. Nil selects the flat store over the dataset; sharded and
	// cached stores change transfer accounting, never batch contents.
	Store store.FeatureStore
	// Fused runs the fused gather+aggregate pipeline: the executor
	// pre-reduces the first layer's aggregate during the gather and the
	// model consumes it via nn.FusedModel.ForwardFused. Requires the
	// Salient executor, an architecture whose first layer mean/sum
	// aggregates (SAGE or GIN), and a store implementing
	// store.FusedGatherer. Training is bit-identical to the staged path.
	Fused bool
	// Graph is the topology source training samples against. Nil trains on
	// the dataset's static graph; a *graph.Dynamic pins the latest view
	// once per epoch (train-while-updating: updates applied mid-epoch take
	// effect at the next epoch boundary). With zero applied deltas training
	// is bit-identical to the static baseline. A *graph.Partitioned view
	// trains against a partitioned topology fetching remote adjacency over
	// a transport.
	Graph graph.Viewer
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

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch     int
	Loss      float64 // mean NLL over batches
	Acc       float64 // training accuracy over seed nodes
	Batches   int
	Wall      time.Duration // end-to-end epoch wall time
	PrepWait  time.Duration // time the training loop blocked waiting on prep
	Compute   time.Duration // forward+backward+step time
	NodesSeen int           // total expanded-neighborhood rows processed
	EdgesSeen int
}

// Trainer owns a model, its optimizer, and a batch-preparation executor.
type Trainer struct {
	DS    *dataset.Dataset
	Model nn.Model
	Cfg   Config

	opt     *nn.Adam
	store   store.FeatureStore
	salient *prep.Salient
	pyg     *prep.PyG
	dec     Decoder // reusable decode target
}

// FeatureStore returns the store the trainer reads features through, for
// transfer-accounting inspection.
func (t *Trainer) FeatureStore() store.FeatureStore { return t.store }

// New builds a trainer over ds. Fanout length must equal the layer count.
func New(ds *dataset.Dataset, cfg Config) (*Trainer, error) {
	cfg.Defaults()
	if len(cfg.Fanouts) != cfg.Layers {
		return nil, fmt.Errorf("train: %d fanouts for %d layers", len(cfg.Fanouts), cfg.Layers)
	}
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
	tr := &Trainer{DS: ds, Model: model, Cfg: cfg, opt: nn.NewAdam(model.Params(), cfg.LR)}
	tr.store = cfg.Store
	if tr.store == nil {
		tr.store = store.NewFlat(ds)
	}
	opts := prep.Options{
		Workers:   cfg.Workers,
		BatchSize: cfg.BatchSize,
		Fanouts:   cfg.Fanouts,
		Ordered:   true, // bit-reproducible training
		Store:     tr.store,
		Graph:     cfg.Graph,
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
	switch cfg.Executor {
	case ExecSalient:
		opts.Sampler = sampler.FastConfig()
		tr.salient, err = prep.NewSalient(ds, opts)
	case ExecPyG:
		opts.Sampler = sampler.BaselineConfig()
		tr.pyg, err = prep.NewPyG(ds, opts)
	default:
		err = fmt.Errorf("train: unknown executor %v", cfg.Executor)
	}
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// run starts the configured executor for one epoch.
func (t *Trainer) run(seeds []int32, epochSeed uint64) *prep.Stream {
	if t.salient != nil {
		return t.salient.Run(seeds, epochSeed)
	}
	return t.pyg.Run(seeds, epochSeed)
}

// epochSeed derives the per-epoch shuffling/sampling seed.
func (t *Trainer) epochSeed(epoch int) uint64 {
	return EpochSeed(t.Cfg.Seed, epoch)
}

// TrainEpoch runs one epoch of mini-batch SGD over the training split. A
// batch-preparation failure drains the epoch (releasing every staged
// buffer) and is returned instead of panicking inside an executor worker.
func (t *Trainer) TrainEpoch(epoch int) (EpochStats, error) {
	st := EpochStats{Epoch: epoch}
	start := time.Now()
	epochSeed := t.epochSeed(epoch)
	stream := t.run(t.DS.Train, epochSeed)

	var firstErr error
	var correct, total int
	pred := make([]int32, t.Cfg.BatchSize)
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
		res := ReplicaStep(t.Model, &t.dec, b, epochSeed, pred)
		st.Loss += res.Loss
		correct += res.Correct
		total += res.Rows
		t.opt.Step(t.Model.Params())

		st.Batches++
		st.NodesSeen += res.Nodes
		st.EdgesSeen += res.Edges
		st.Compute += time.Since(cStart)
		b.Release()
	}
	stream.Wait()
	if firstErr == nil {
		firstErr = stream.Err()
	}
	st.Wall = time.Since(start)
	if st.Batches > 0 {
		st.Loss /= float64(st.Batches)
	}
	if total > 0 {
		st.Acc = float64(correct) / float64(total)
	}
	return st, firstErr
}

// Fit trains for n epochs and returns per-epoch stats, stopping at the
// first preparation failure.
func (t *Trainer) Fit(epochs int) ([]EpochStats, error) {
	out := make([]EpochStats, 0, epochs)
	for e := 0; e < epochs; e++ {
		s, err := t.TrainEpoch(e)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}
