package nn

import (
	"fmt"

	"salient/internal/mfg"
	"salient/internal/tensor"
)

// Model is a GNN architecture evaluated over MFGs: sampled ones for
// mini-batch training and inference, and the whole-graph MFG of
// layer-wise full-neighborhood inference (infer.FullThrough). Forward returns
// row-wise log-probabilities for the seed (batch) nodes; Backward consumes
// the gradient w.r.t. those log-probabilities (as produced by
// tensor.NLLLoss) and accumulates parameter gradients.
//
// An eval-mode forward (train == false) is a pure function of the
// parameters, x and the MFG: it writes no model or layer field, so any
// number of goroutines may run eval forwards through one model at once, as
// long as none trains it. A training-mode forward caches the activations
// its gradient needs, and Backward consumes the caches of the last
// training-mode forward.
type Model interface {
	Name() string
	// Layers returns the number of MFG blocks Forward consumes.
	Layers() int
	Forward(x *tensor.Dense, m *mfg.MFG, train bool) *tensor.Dense
	Backward(dLogp *tensor.Dense)
	Params() []*Param
}

// DropoutReseeder is implemented by models whose stochastic layers
// (dropout) draw from a re-keyable RNG stream. Training loops re-key the
// stream once per batch (train.DropoutSeed) so a batch's dropout masks
// depend only on the (epoch seed, global batch index) pair — never on which
// replica executes the batch or in which order batches run. This is the
// property that makes executing data-parallel training (internal/train)
// bit-identical to the single-replica union batch schedule.
type DropoutReseeder interface {
	ReseedDropout(seed uint64)
}

// BufferModel is implemented by models carrying non-trainable running
// statistics (BatchNorm running mean/variance in GIN and SAGE-RI). The
// buffers are not part of Params() — they take no gradients — so gradient
// averaging never synchronizes them; the data-parallel trainer instead
// broadcasts the leader replica's buffers at every step barrier (PyTorch
// DDP's broadcast_buffers semantics) to keep replicas bit-identical in
// eval mode too.
type BufferModel interface {
	// StatBuffers returns the model's running-statistic vectors in a fixed
	// order; the slices alias live layer state so they can be copied into.
	StatBuffers() [][]float32
}

// ResumeModel is implemented by models whose forward pass can be split at
// the layer-1 boundary, which is where the historical-embedding cache
// (internal/embcache) injects reused rows: ForwardLayer1 produces the
// layer-1 output for the level-1 frontier, the caller may overwrite rows
// of it with cached embeddings (and absorb fresh rows into the cache),
// then ForwardRest runs the remainder of the stack.
//
// Contract: ForwardRest(ForwardLayer1(x, g, train), g, train) must be
// bit-identical to Forward(x, g, train). ForwardRest mutates h1 in place
// (the inter-layer ReLU is in-place), so callers must absorb any rows they
// want to cache BEFORE calling it.
type ResumeModel interface {
	ForwardLayer1(x *tensor.Dense, g *mfg.MFG, train bool) *tensor.Dense
	ForwardRest(h1 *tensor.Dense, g *mfg.MFG, train bool) *tensor.Dense
}

// conv abstracts the per-layer convolution shared by the architectures.
type conv interface {
	Forward(x *tensor.Dense, blk *mfg.Block, train bool) *tensor.Dense
	// Backward accumulates the layer's parameter gradients and returns the
	// gradient w.r.t. its input, or nil for a model's first layer, whose
	// input is the raw features.
	Backward(dy *tensor.Dense) *tensor.Dense
	Params() []*Param
}

// ModelConfig carries the hyperparameters of paper Table 5.
type ModelConfig struct {
	In     int
	Hidden int
	Out    int
	Layers int
	Seed   uint64
}

func (c ModelConfig) check() {
	if c.Layers < 1 || c.In < 1 || c.Hidden < 1 || c.Out < 1 {
		panic(fmt.Sprintf("nn: invalid model config %+v", c)) //lint:allow panicdiscipline constructor contract: invalid model config is a programmer error caught at wiring time
	}
}

// collectParams flattens parameters of a conv stack.
func collectParams(convs []conv, extra ...*Param) []*Param {
	var ps []*Param
	for _, c := range convs {
		ps = append(ps, c.Params()...)
	}
	return append(ps, extra...)
}

// reuseMask returns *buf resized to n for a training-mode forward to record
// a ReLU mask in, or nil in eval mode, which records none.
func reuseMask(buf *[]bool, n int, train bool) []bool {
	if !train {
		return nil
	}
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
