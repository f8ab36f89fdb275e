package nn

import (
	"salient/internal/mfg"
	"salient/internal/rng"
	"salient/internal/tensor"
)

// SAGEConv is the GraphSAGE mean-aggregator convolution used throughout the
// paper (PyG semantics, bias disabled as in appendix Listing 1):
//
//	y_v = mean_{u∈N̂(v)} x_u · W_neigh + x_v · W_root
type SAGEConv struct {
	WNeigh *Param
	WRoot  *Param

	// inputLayer marks a model's first convolution, whose input is the raw
	// features. Features are inputs, not parameters, so its Backward
	// accumulates the parameter gradients only and returns nil.
	inputLayer bool

	// Backward caches.
	x   *tensor.Dense
	agg *tensor.Dense
	blk *mfg.Block
	// fusedXT is the x_target tensor ForwardFused was given (nil after
	// Forward, where x_target is the NumDst prefix of x).
	fusedXT *tensor.Dense
}

// NewSAGEConv creates a Glorot-initialized SAGE convolution.
func NewSAGEConv(name string, in, out int, r *rng.Rand) *SAGEConv {
	c := &SAGEConv{
		WNeigh: NewParam(name+".w_neigh", in, out),
		WRoot:  NewParam(name+".w_root", in, out),
	}
	c.WNeigh.GlorotInit(r)
	c.WRoot.GlorotInit(r)
	return c
}

// Forward computes destination representations from source features x over
// the sampled block, caching what Backward needs when train is set.
func (c *SAGEConv) Forward(x *tensor.Dense, blk *mfg.Block, train bool) *tensor.Dense {
	agg := aggregateMeanBlock(x, blk)
	if train {
		c.x, c.blk, c.agg, c.fusedXT = x, blk, agg, nil
	}
	// x_target is the NumDst prefix of x.
	xt := tensor.FromSlice(int(blk.NumDst), x.Cols, x.Data[:int(blk.NumDst)*x.Cols])
	return c.combine(agg, xt, blk)
}

// ForwardFused consumes a fused gather+aggregate batch: agg is the
// mean-aggregated neighbor tensor the kernel computed in block edge order
// (bit-identical to aggregateMeanBlock over the staged features) and xt the
// widened x_target prefix. Must only be used for the first layer of a
// model, which has no source tensor to return an input gradient for.
func (c *SAGEConv) ForwardFused(agg, xt *tensor.Dense, blk *mfg.Block, train bool) *tensor.Dense {
	if train {
		c.x, c.blk, c.agg, c.fusedXT = nil, blk, agg, xt
	}
	return c.combine(agg, xt, blk)
}

// combine applies the two weight matrices to the aggregate and x_target:
// y = agg·W_neigh + xt·W_root.
func (c *SAGEConv) combine(agg, xt *tensor.Dense, blk *mfg.Block) *tensor.Dense {
	y := tensor.New(int(blk.NumDst), c.WNeigh.W.Cols)
	tensor.MatMul(y, agg, c.WNeigh.W)
	root := tensor.New(int(blk.NumDst), c.WRoot.W.Cols)
	tensor.MatMul(root, xt, c.WRoot.W)
	y.Add(root)
	return y
}

// Backward accumulates parameter gradients and returns the gradient w.r.t.
// the source features. A model's first layer returns nil instead, after
// Forward and ForwardFused alike: the raw-feature gradient has no consumer,
// and the parameter grads need only the cached aggregate and x_target, so
// they are the same either way. Backward consumes the forward caches: each
// call needs a training-mode Forward or ForwardFused before it.
func (c *SAGEConv) Backward(dy *tensor.Dense) *tensor.Dense {
	defer c.release()
	blk := c.blk
	nDst := int(blk.NumDst)
	xt := c.fusedXT
	if xt == nil {
		xt = tensor.FromSlice(nDst, c.x.Cols, c.x.Data[:nDst*c.x.Cols])
	}

	// Parameter grads.
	dWn := tensor.New(c.WNeigh.W.Rows, c.WNeigh.W.Cols)
	tensor.MatMulAT(dWn, c.agg, dy)
	c.WNeigh.G.Add(dWn)
	dWr := tensor.New(c.WRoot.W.Rows, c.WRoot.W.Cols)
	tensor.MatMulAT(dWr, xt, dy)
	c.WRoot.G.Add(dWr)

	if c.inputLayer {
		return nil
	}

	// Input grads.
	dx := tensor.New(c.x.Rows, c.x.Cols)
	dAgg := tensor.New(nDst, c.x.Cols)
	tensor.MatMulBT(dAgg, dy, c.WNeigh.W)
	aggregateMeanBlockBackward(dx, dAgg, blk)

	dxt := tensor.New(nDst, c.x.Cols)
	tensor.MatMulBT(dxt, dy, c.WRoot.W)
	for i := 0; i < nDst; i++ {
		drow := dx.Row(i)
		srow := dxt.Row(i)
		for j, v := range srow {
			drow[j] += v
		}
	}
	return dx
}

// release drops the forward caches once Backward has consumed them, so a
// finished step's activations do not stay reachable into the next step's
// forward pass, which would otherwise hold both steps' at once.
func (c *SAGEConv) release() {
	c.x, c.agg, c.fusedXT = nil, nil, nil
}

// Params returns the trainable parameters.
func (c *SAGEConv) Params() []*Param { return []*Param{c.WNeigh, c.WRoot} }
