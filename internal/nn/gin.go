package nn

import (
	"salient/internal/mfg"
	"salient/internal/rng"
	"salient/internal/tensor"
)

// GINConv is the Graph Isomorphism Network convolution (paper appendix
// Listing 3): sum aggregation followed by an MLP,
//
//	y_v = MLP( (1+ε)·x_v + Σ_{u∈N̂(v)} x_u ),   ε = 0 fixed
//	MLP = Linear → BatchNorm → ReLU → Linear → ReLU
type GINConv struct {
	Lin1 *Linear
	BN   *BatchNorm
	Lin2 *Linear

	// Backward caches.
	blk   *mfg.Block
	xRows int
	xCols int
	mask1 []bool // ReLU mask after BN
	mask2 []bool // final ReLU mask

	// inputLayer marks a model's first convolution: Backward stops after
	// the MLP parameter grads and returns no input gradient (see
	// SAGEConv.inputLayer).
	inputLayer bool
}

// NewGINConv creates a GIN convolution with hidden width equal to out.
func NewGINConv(name string, in, out int, r *rng.Rand) *GINConv {
	return &GINConv{
		Lin1: NewLinear(name+".mlp.0", in, out, true, r),
		BN:   NewBatchNorm(name+".mlp.1", out),
		Lin2: NewLinear(name+".mlp.3", out, out, true, r),
	}
}

// Forward computes destination representations over the sampled block.
func (c *GINConv) Forward(x *tensor.Dense, blk *mfg.Block, train bool) *tensor.Dense {
	if train {
		c.blk = blk
		c.xRows, c.xCols = x.Rows, x.Cols
	}
	h := aggregateSumBlock(x, blk) // Σ neighbors
	// + (1+ε)·x_target with ε = 0.
	nDst := int(blk.NumDst)
	for v := 0; v < nDst; v++ {
		hr := h.Row(v)
		xr := x.Row(v)
		for j, f := range xr {
			hr[j] += f
		}
	}
	return c.mlp(h, train)
}

// ForwardFused consumes a fused gather+aggregate batch: agg is the
// sum-aggregated neighbor tensor computed in block edge order
// (bit-identical to aggregateSumBlock over the staged features) and xt the
// widened x_target prefix, so h = agg + (1+ε)·xt with ε = 0 — the exact
// value the staged path forms. Must only be used for the first layer of a
// model, which has no source tensor to return an input gradient for.
func (c *GINConv) ForwardFused(agg, xt *tensor.Dense, blk *mfg.Block, train bool) *tensor.Dense {
	if train {
		c.blk = blk
		c.xRows, c.xCols = 0, 0
	}
	h := tensor.New(agg.Rows, agg.Cols)
	for i, f := range agg.Data {
		h.Data[i] = f + xt.Data[i]
	}
	return c.mlp(h, train)
}

// mlp applies the convolution's MLP (Linear → BN → ReLU → Linear → ReLU) to
// the aggregated representation, caching the ReLU masks for Backward when
// train is set.
func (c *GINConv) mlp(h *tensor.Dense, train bool) *tensor.Dense {
	h = c.Lin1.Forward(h, train)
	h = c.BN.Forward(h, train)
	h.ReLU(reuseMask(&c.mask1, len(h.Data), train))
	h = c.Lin2.Forward(h, train)
	h.ReLU(reuseMask(&c.mask2, len(h.Data), train))
	return h
}

// Backward accumulates the MLP parameter gradients and returns the
// source-feature gradient. A model's first layer returns nil instead, after
// Forward and ForwardFused alike, and skips Lin1's input gradient and the
// scatter that would only feed it.
func (c *GINConv) Backward(dy *tensor.Dense) *tensor.Dense {
	d := dy.Clone()
	for i := range d.Data {
		if !c.mask2[i] {
			d.Data[i] = 0
		}
	}
	d = c.Lin2.Backward(d)
	for i := range d.Data {
		if !c.mask1[i] {
			d.Data[i] = 0
		}
	}
	d = c.BN.Backward(d)
	if c.inputLayer {
		c.Lin1.backwardParams(d)
		return nil
	}
	d = c.Lin1.Backward(d) // gradient w.r.t. the aggregated h

	dx := tensor.New(c.xRows, c.xCols)
	aggregateSumBlockBackward(dx, d, c.blk)
	nDst := int(c.blk.NumDst)
	for v := 0; v < nDst; v++ {
		dr := dx.Row(v)
		sr := d.Row(v)
		for j, g := range sr {
			dr[j] += g
		}
	}
	return dx
}

// Params returns the trainable parameters of the inner MLP.
func (c *GINConv) Params() []*Param {
	ps := c.Lin1.Params()
	ps = append(ps, c.BN.Params()...)
	ps = append(ps, c.Lin2.Params()...)
	return ps
}
