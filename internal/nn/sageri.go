package nn

import (
	"salient/internal/mfg"
	"salient/internal/rng"
	"salient/internal/tensor"
)

// riSlope is the LeakyReLU slope used by SAGE-RI activations (F.leaky_relu
// default).
const riSlope = 0.01

// SAGERI is GraphSAGE with residual connections, batch norm, and an
// Inception-like head (appendix Listing 4): every layer's (pre-residual)
// output prefix is collected, concatenated, and classified by a final MLP.
// Dropout probability is 0.1 throughout.
type SAGERI struct {
	convs []conv
	bns   []*BatchNorm
	res0  *Linear // residual projection of layer 0 (others are identity)
	mlp1  *Linear
	mlp2  *Linear

	drop0   *Dropout
	dropIn  []*Dropout
	dropOut []*Dropout
	r       *rng.Rand

	// Backward caches.
	g          *mfg.MFG
	end        int
	leakyMasks [][]bool
	mlpMask    []bool
	collectSz  []int // feature width of each collect segment
	logp       *tensor.Dense
}

// NewSAGERI builds the model (hidden is typically 1024 in the paper).
func NewSAGERI(cfg ModelConfig) *SAGERI {
	cfg.check()
	r := rng.New(cfg.Seed)
	m := &SAGERI{r: r, drop0: NewDropout(0.1)}
	in := cfg.In
	for l := 0; l < cfg.Layers; l++ {
		c := NewSAGEConv(layerName("ri", l), in, cfg.Hidden, r)
		c.inputLayer = l == 0
		m.convs = append(m.convs, c)
		m.bns = append(m.bns, NewBatchNorm(layerName("ri.bn", l), cfg.Hidden))
		m.dropIn = append(m.dropIn, NewDropout(0.1))
		m.dropOut = append(m.dropOut, NewDropout(0.1))
		in = cfg.Hidden
	}
	m.res0 = NewLinear("ri.res0", cfg.In, cfg.Hidden, true, r)
	catDim := cfg.In + cfg.Layers*cfg.Hidden
	m.mlp1 = NewLinear("ri.mlp.0", catDim, cfg.Hidden, true, r)
	m.mlp2 = NewLinear("ri.mlp.1", cfg.Hidden, cfg.Out, true, r)
	m.leakyMasks = make([][]bool, cfg.Layers)
	return m
}

// Name implements Model.
func (m *SAGERI) Name() string { return "SAGE-RI" }

// Layers implements Model.
func (m *SAGERI) Layers() int { return len(m.convs) }

// ReseedDropout re-keys the dropout RNG stream (nn.DropoutReseeder).
func (m *SAGERI) ReseedDropout(seed uint64) { m.r.Reseed(seed) }

func prefixClone(x *tensor.Dense, rows int) *tensor.Dense {
	out := tensor.New(rows, x.Cols)
	copy(out.Data, x.Data[:rows*x.Cols])
	return out
}

func addPrefix(dst, src *tensor.Dense) {
	for i := 0; i < src.Rows; i++ {
		d := dst.Row(i)
		s := src.Row(i)
		for j, v := range s {
			d[j] += v
		}
	}
}

// Forward implements Model.
//
// One simplification versus Listing 4: the listing applies independent
// dropout masks to the source matrix and its target prefix before the conv;
// here a single mask covers the matrix (the prefix shares it). The
// distribution of surviving units is identical.
func (m *SAGERI) Forward(x *tensor.Dense, g *mfg.MFG, train bool) *tensor.Dense {
	end := int(g.Batch)
	L := len(m.convs)

	x = m.drop0.Forward(x, train, m.r)
	collect := make([]*tensor.Dense, 0, L+1)
	collect = append(collect, prefixClone(x, end))

	for i := 0; i < L; i++ {
		blk := &g.Blocks[i]
		xd := m.dropIn[i].Forward(x, train, m.r)
		a := m.convs[i].Forward(xd, blk, train)
		b := m.bns[i].Forward(a, train)
		var mask []bool
		if train {
			mask = make([]bool, len(b.Data))
			m.leakyMasks[i] = mask
		}
		b.LeakyReLU(riSlope, mask)
		d := m.dropOut[i].Forward(b, train, m.r)
		collect = append(collect, prefixClone(d, end))

		// x_{i+1} = d + res_i(x_target); res is a linear projection at layer
		// 0 and identity afterwards.
		xt := prefixClone(x, int(blk.NumDst))
		var res *tensor.Dense
		if i == 0 {
			res = m.res0.Forward(xt, train)
		} else {
			res = xt
		}
		next := d.Clone()
		next.Add(res)
		x = next
	}

	// Inception head: concat collected prefixes, MLP, log-softmax.
	catDim := 0
	for _, c := range collect {
		catDim += c.Cols
	}
	cat := tensor.New(end, catDim)
	off := 0
	for _, c := range collect {
		for i := 0; i < end; i++ {
			copy(cat.Row(i)[off:off+c.Cols], c.Row(i))
		}
		off += c.Cols
	}
	h := m.mlp1.Forward(cat, train)
	h.ReLU(reuseMask(&m.mlpMask, len(h.Data), train))
	out := m.mlp2.Forward(h, train)
	out.LogSoftmaxRows()
	if train {
		m.g, m.end, m.logp = g, end, out
		m.collectSz = m.collectSz[:0]
		for _, c := range collect {
			m.collectSz = append(m.collectSz, c.Cols)
		}
	}
	return out
}

// Backward implements Model.
func (m *SAGERI) Backward(dLogp *tensor.Dense) {
	L := len(m.convs)
	d := tensor.New(m.logp.Rows, m.logp.Cols)
	tensor.LogSoftmaxBackward(d, m.logp, dLogp)
	d = m.mlp2.Backward(d)
	for k := range d.Data {
		if !m.mlpMask[k] {
			d.Data[k] = 0
		}
	}
	dCat := m.mlp1.Backward(d)

	// Split the concatenated gradient back into per-collect segments. The
	// first, collect[0] = x_0[:end], is raw features and takes no gradient.
	dCollect := make([]*tensor.Dense, len(m.collectSz))
	off := m.collectSz[0]
	for k := 1; k < len(m.collectSz); k++ {
		w := m.collectSz[k]
		seg := tensor.New(m.end, w)
		for i := 0; i < m.end; i++ {
			copy(seg.Row(i), dCat.Row(i)[off:off+w])
		}
		dCollect[k] = seg
		off += w
	}

	// x_{L} is never consumed downstream, so its gradient starts at zero.
	lastDst := int(m.g.Blocks[L-1].NumDst)
	dxNext := tensor.New(lastDst, m.convs[L-1].Params()[0].W.Cols)

	for i := L - 1; i >= 0; i-- {
		// x_{i+1} = d_i + res_i(xt_i); collect[i+1] = d_i[:end].
		dd := dxNext.Clone()
		addPrefix(dd, dCollect[i+1])

		dc := m.dropOut[i].Backward(dd)
		for k := range dc.Data {
			if !m.leakyMasks[i][k] {
				dc.Data[k] *= riSlope
			}
		}
		da := m.bns[i].Backward(dc)
		dxd := m.convs[i].Backward(da)
		if dxd == nil {
			// Layer 0 returns no input gradient: x_0 is the raw features,
			// which take none, so only res0's parameter grads remain.
			m.res0.backwardParams(dxNext)
			return
		}
		dxi := m.dropIn[i].Backward(dxd)

		// Residual path feeds xt_i = x_i[:NumDst].
		var dxt *tensor.Dense
		if i == 0 {
			dxt = m.res0.Backward(dxNext)
		} else {
			dxt = dxNext
		}
		addPrefix(dxi, dxt)
		dxNext = dxi
	}
}

// Params implements Model.
func (m *SAGERI) Params() []*Param {
	ps := collectParams(m.convs)
	for _, bn := range m.bns {
		ps = append(ps, bn.Params()...)
	}
	ps = append(ps, m.res0.Params()...)
	ps = append(ps, m.mlp1.Params()...)
	ps = append(ps, m.mlp2.Params()...)
	return ps
}

// StatBuffers implements nn.BufferModel: each BatchNorm's running mean and
// variance, layer order.
func (m *SAGERI) StatBuffers() [][]float32 {
	var out [][]float32
	for _, bn := range m.bns {
		out = append(out, bn.RunningMean, bn.RunningVar)
	}
	return out
}

var _ Model = (*SAGERI)(nil)
var _ Model = (*GraphSAGE)(nil)
var _ Model = (*GATModel)(nil)
var _ Model = (*GINModel)(nil)
