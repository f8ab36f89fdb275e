package nn

import (
	"fmt"

	"salient/internal/graph"
	"salient/internal/mfg"
	"salient/internal/tensor"
)

// Model is a GNN architecture usable for both mini-batch training (over
// sampled MFGs) and layer-wise full-neighborhood inference. Forward returns
// row-wise log-probabilities for the seed (batch) nodes; Backward consumes
// the gradient w.r.t. those log-probabilities (as produced by
// tensor.NLLLoss) and accumulates parameter gradients.
type Model interface {
	Name() string
	Forward(x *tensor.Dense, m *mfg.MFG, train bool) *tensor.Dense
	Backward(dLogp *tensor.Dense)
	Params() []*Param
	// InferFull evaluates the model layer-wise over the whole graph with
	// full neighborhoods (paper §5's non-sampling inference baseline) and
	// returns log-probabilities for every node.
	InferFull(g graph.Topology, x *tensor.Dense) *tensor.Dense
}

// DropoutReseeder is implemented by models whose stochastic layers
// (dropout) draw from a re-keyable RNG stream. Training loops re-key the
// stream once per batch (train.DropoutSeed) so a batch's dropout masks
// depend only on the (epoch seed, global batch index) pair — never on which
// replica executes the batch or in which order batches run. This is the
// property that makes executing data-parallel training (internal/ddp)
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
	FullForward(g graph.Topology, x *tensor.Dense) *tensor.Dense
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
