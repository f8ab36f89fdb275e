// Package nn implements the GNN layers, models and optimizer used in the
// paper's experiments: GraphSAGE, GAT, GIN and GraphSAGE-RI (appendix C),
// trained with Adam on NLL loss over log-softmax outputs.
//
// The package plays the role of torch.nn + autograd in the paper's stack.
// Backward passes are written by hand per layer; in training mode every
// layer caches exactly the activations its gradient needs, and in eval mode
// it caches nothing. Layers operate on MFG blocks only: mini-batch training
// and inference run them over sampled MFGs, and the layer-wise
// full-neighborhood inference baseline of §5 runs the same forward over a
// whole-graph MFG (infer.FullThrough).
package nn

import (
	"math"

	"salient/internal/rng"
	"salient/internal/tensor"
)

// Param is a trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Dense
	G    *tensor.Dense
}

// NewParam allocates a zeroed parameter of the given shape.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), G: tensor.New(rows, cols)}
}

// GlorotInit fills p.W with the Glorot/Xavier uniform distribution
// U(-a, a), a = sqrt(6/(fanIn+fanOut)) — PyG's default for conv weights.
func (p *Param) GlorotInit(r *rng.Rand) {
	a := float32(math.Sqrt(6.0 / float64(p.W.Rows+p.W.Cols)))
	for i := range p.W.Data {
		p.W.Data[i] = (2*r.Float32() - 1) * a
	}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.G.Zero() }
