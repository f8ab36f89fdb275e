package nn

import (
	"math"

	"salient/internal/mfg"
	"salient/internal/rng"
	"salient/internal/tensor"
)

// gatSlope is the LeakyReLU negative slope used by GAT attention logits.
const gatSlope = 0.2

// GATConv is a single-head graph attention convolution (paper appendix
// Listing 2 uses heads=1, bias=False):
//
//	z_u   = x_u · W
//	e_uv  = LeakyReLU(aSrc·z_u + aDst·z_v)    over u ∈ N̂(v) ∪ {v}
//	α_·v  = softmax_u(e_uv)
//	y_v   = Σ_u α_uv · z_u
//
// A self-edge is always included so isolated destinations keep their own
// signal (PyG's add_self_loops behaviour).
type GATConv struct {
	W    *Param // In × Out
	ASrc *Param // 1 × Out
	ADst *Param // 1 × Out

	// inputLayer marks a model's first convolution: Backward stops after
	// the parameter grads and returns no input gradient (see
	// SAGEConv.inputLayer).
	inputLayer bool

	// Backward caches.
	x     *tensor.Dense
	z     *tensor.Dense
	blk   *mfg.Block
	alpha []float32 // per sampled edge, grouped by dst via blk.DstPtr
	pre   []float32 // pre-activation logits per sampled edge
	selfA []float32 // self-edge attention per dst
	selfP []float32 // self-edge pre-activation per dst
}

// NewGATConv creates a Glorot-initialized single-head GAT convolution.
func NewGATConv(name string, in, out int, r *rng.Rand) *GATConv {
	c := &GATConv{
		W:    NewParam(name+".weight", in, out),
		ASrc: NewParam(name+".att_src", 1, out),
		ADst: NewParam(name+".att_dst", 1, out),
	}
	c.W.GlorotInit(r)
	c.ASrc.GlorotInit(r)
	c.ADst.GlorotInit(r)
	return c
}

func dot(a, b []float32) float32 {
	var s float32
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func leaky(v float32) float32 {
	if v > 0 {
		return v
	}
	return gatSlope * v
}

// Forward computes attention-weighted destination representations, caching
// what Backward needs when train is set.
func (c *GATConv) Forward(x *tensor.Dense, blk *mfg.Block, train bool) *tensor.Dense {
	out := c.W.W.Cols
	z := tensor.New(x.Rows, out)
	tensor.MatMul(z, x, c.W.W)

	nDst := int(blk.NumDst)
	nEdge := blk.NumEdges()
	alpha := make([]float32, nEdge)
	pre := make([]float32, nEdge)
	selfA := make([]float32, nDst)
	selfP := make([]float32, nDst)

	// Per-source and per-destination attention terms.
	attnSrc := make([]float32, x.Rows)
	for i := 0; i < x.Rows; i++ {
		attnSrc[i] = dot(z.Row(i), c.ASrc.W.Data)
	}
	attnDst := make([]float32, nDst)
	for v := 0; v < nDst; v++ {
		attnDst[v] = dot(z.Row(v), c.ADst.W.Data)
	}

	y := tensor.New(nDst, out)
	for v := 0; v < nDst; v++ {
		lo, hi := blk.DstPtr[v], blk.DstPtr[v+1]
		// Logits: neighbors then the self edge.
		maxL := float32(math.Inf(-1))
		for e := lo; e < hi; e++ {
			u := blk.Src[e]
			p := leaky(attnSrc[u] + attnDst[v])
			pre[e] = attnSrc[u] + attnDst[v]
			if p > maxL {
				maxL = p
			}
		}
		selfPre := attnSrc[v] + attnDst[v]
		selfP[v] = selfPre
		if sp := leaky(selfPre); sp > maxL {
			maxL = sp
		}
		// Softmax.
		var sum float32
		for e := lo; e < hi; e++ {
			a := float32(math.Exp(float64(leaky(pre[e]) - maxL)))
			alpha[e] = a
			sum += a
		}
		selfExp := float32(math.Exp(float64(leaky(selfPre) - maxL)))
		sum += selfExp
		inv := 1 / sum
		yrow := y.Row(v)
		for e := lo; e < hi; e++ {
			alpha[e] *= inv
			zrow := z.Row(int(blk.Src[e]))
			a := alpha[e]
			for j, f := range zrow {
				yrow[j] += a * f
			}
		}
		sa := selfExp * inv
		selfA[v] = sa
		zrow := z.Row(v)
		for j, f := range zrow {
			yrow[j] += sa * f
		}
	}
	if train {
		c.x, c.z, c.blk = x, z, blk
		c.alpha, c.pre, c.selfA, c.selfP = alpha, pre, selfA, selfP
	}
	return y
}

// Backward propagates through attention, softmax and the shared projection,
// and returns the source-feature gradient (nil for a model's first layer,
// which still needs dz for the W and attention gradients but not dz·Wᵀ).
func (c *GATConv) Backward(dy *tensor.Dense) *tensor.Dense {
	blk := c.blk
	nDst := int(blk.NumDst)
	out := c.W.W.Cols

	dz := tensor.New(c.z.Rows, out)
	dAttnSrc := make([]float32, c.z.Rows)
	dAttnDst := make([]float32, nDst)

	for v := 0; v < nDst; v++ {
		lo, hi := blk.DstPtr[v], blk.DstPtr[v+1]
		dyrow := dy.Row(v)

		// dα for every edge (incl. self) and the softmax dot-product term.
		nEdges := int(hi-lo) + 1
		dAlpha := make([]float32, nEdges)
		var dotAD float32 // Σ_w α_w · dα_w
		for k, e := 0, lo; e < hi; k, e = k+1, e+1 {
			zrow := c.z.Row(int(blk.Src[e]))
			dAlpha[k] = dot(dyrow, zrow)
			dotAD += c.alpha[e] * dAlpha[k]
		}
		dAlpha[nEdges-1] = dot(dyrow, c.z.Row(v))
		dotAD += c.selfA[v] * dAlpha[nEdges-1]

		// dz from the weighted sum, and de = α(dα - Σαdα) through softmax,
		// then through LeakyReLU into the attention terms.
		for k, e := 0, lo; e < hi; k, e = k+1, e+1 {
			u := int(blk.Src[e])
			a := c.alpha[e]
			zdrow := dz.Row(u)
			for j, g := range dyrow {
				zdrow[j] += a * g
			}
			de := a * (dAlpha[k] - dotAD)
			dpre := de
			if c.pre[e] <= 0 {
				dpre *= gatSlope
			}
			dAttnSrc[u] += dpre
			dAttnDst[v] += dpre
		}
		// Self edge.
		sa := c.selfA[v]
		zdrow := dz.Row(v)
		for j, g := range dyrow {
			zdrow[j] += sa * g
		}
		de := sa * (dAlpha[nEdges-1] - dotAD)
		dpre := de
		if c.selfP[v] <= 0 {
			dpre *= gatSlope
		}
		dAttnSrc[v] += dpre
		dAttnDst[v] += dpre
	}

	// attnSrc[u] = aSrc·z_u and attnDst[v] = aDst·z_v.
	for u := 0; u < c.z.Rows; u++ {
		if dAttnSrc[u] == 0 {
			continue
		}
		zrow := c.z.Row(u)
		zdrow := dz.Row(u)
		g := dAttnSrc[u]
		for j := range zrow {
			c.ASrc.G.Data[j] += g * zrow[j]
			zdrow[j] += g * c.ASrc.W.Data[j]
		}
	}
	for v := 0; v < nDst; v++ {
		if dAttnDst[v] == 0 {
			continue
		}
		zrow := c.z.Row(v)
		zdrow := dz.Row(v)
		g := dAttnDst[v]
		for j := range zrow {
			c.ADst.G.Data[j] += g * zrow[j]
			zdrow[j] += g * c.ADst.W.Data[j]
		}
	}

	// z = xW.
	dW := tensor.New(c.W.W.Rows, c.W.W.Cols)
	tensor.MatMulAT(dW, c.x, dz)
	c.W.G.Add(dW)
	if c.inputLayer {
		return nil
	}
	dx := tensor.New(c.x.Rows, c.x.Cols)
	tensor.MatMulBT(dx, dz, c.W.W)
	return dx
}

// Params returns the trainable parameters.
func (c *GATConv) Params() []*Param { return []*Param{c.W, c.ASrc, c.ADst} }
