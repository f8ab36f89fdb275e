package nn

import (
	"salient/internal/mfg"
	"salient/internal/rng"
	"salient/internal/slicing"
	"salient/internal/tensor"
)

// GINModel stacks GINConv layers (each ending in its internal MLP+ReLU) and
// finishes with the prediction head of appendix Listing 3:
// Linear → ReLU → dropout(0.5) → Linear → log-softmax.
type GINModel struct {
	convs []conv
	lin1  *Linear
	lin2  *Linear
	drop  *Dropout
	r     *rng.Rand

	headMask []bool
	logp     *tensor.Dense
}

// NewGIN builds the model. All conv layers output cfg.Hidden; the head maps
// to cfg.Out.
func NewGIN(cfg ModelConfig) *GINModel {
	cfg.check()
	r := rng.New(cfg.Seed)
	m := &GINModel{r: r}
	in := cfg.In
	for l := 0; l < cfg.Layers; l++ {
		c := NewGINConv(layerName("gin", l), in, cfg.Hidden, r)
		c.inputLayer = l == 0
		m.convs = append(m.convs, c)
		in = cfg.Hidden
	}
	m.lin1 = NewLinear("gin.head.0", cfg.Hidden, cfg.Hidden, true, r)
	m.lin2 = NewLinear("gin.head.1", cfg.Hidden, cfg.Out, true, r)
	m.drop = NewDropout(0.5)
	return m
}

// Name implements Model.
func (m *GINModel) Name() string { return "GIN" }

// Layers implements Model.
func (m *GINModel) Layers() int { return len(m.convs) }

// ReseedDropout re-keys the dropout RNG stream (nn.DropoutReseeder).
func (m *GINModel) ReseedDropout(seed uint64) { m.r.Reseed(seed) }

// Forward implements Model.
func (m *GINModel) Forward(x *tensor.Dense, g *mfg.MFG, train bool) *tensor.Dense {
	x = m.convs[0].Forward(x, &g.Blocks[0], train)
	return m.finishForward(x, g, train)
}

// FusedOp implements FusedModel: the first GIN layer sum-aggregates.
func (m *GINModel) FusedOp() slicing.AggOp { return slicing.AggSum }

// ForwardFused implements FusedModel: layer 0 consumes the pre-aggregated
// batch, the rest of the stack is the staged path.
func (m *GINModel) ForwardFused(agg, xt *tensor.Dense, g *mfg.MFG, train bool) *tensor.Dense {
	x := m.convs[0].(*GINConv).ForwardFused(agg, xt, &g.Blocks[0], train)
	return m.finishForward(x, g, train)
}

// ForwardLayer1 implements ResumeModel: layer 0 alone.
func (m *GINModel) ForwardLayer1(x *tensor.Dense, g *mfg.MFG, train bool) *tensor.Dense {
	return m.convs[0].Forward(x, &g.Blocks[0], train)
}

// ForwardRest implements ResumeModel: the stack after layer 0. Mutates h1
// in place (the head's ReLU; GINConv layers allocate fresh outputs but the
// caller must still treat h1 as consumed).
func (m *GINModel) ForwardRest(h1 *tensor.Dense, g *mfg.MFG, train bool) *tensor.Dense {
	return m.finishForward(h1, g, train)
}

// finishForward runs convs 1..L-1 and the prediction head after layer 0's
// output x.
func (m *GINModel) finishForward(x *tensor.Dense, g *mfg.MFG, train bool) *tensor.Dense {
	for i := 1; i < len(m.convs); i++ {
		x = m.convs[i].Forward(x, &g.Blocks[i], train)
	}
	x = m.lin1.Forward(x, train)
	x.ReLU(reuseMask(&m.headMask, len(x.Data), train))
	x = m.drop.Forward(x, train, m.r)
	x = m.lin2.Forward(x, train)
	x.LogSoftmaxRows()
	if train {
		m.logp = x
	}
	return x
}

// Backward implements Model.
func (m *GINModel) Backward(dLogp *tensor.Dense) {
	d := tensor.New(m.logp.Rows, m.logp.Cols)
	tensor.LogSoftmaxBackward(d, m.logp, dLogp)
	d = m.lin2.Backward(d)
	d = m.drop.Backward(d)
	for k := range d.Data {
		if !m.headMask[k] {
			d.Data[k] = 0
		}
	}
	d = m.lin1.Backward(d)
	for i := len(m.convs) - 1; i >= 0; i-- {
		d = m.convs[i].Backward(d)
	}
}

// Params implements Model.
func (m *GINModel) Params() []*Param {
	return collectParams(m.convs, append(m.lin1.Params(), m.lin2.Params()...)...)
}

// StatBuffers implements nn.BufferModel: each conv's BatchNorm running
// mean and variance, layer order.
func (m *GINModel) StatBuffers() [][]float32 {
	var out [][]float32
	for _, c := range m.convs {
		bn := c.(*GINConv).BN
		out = append(out, bn.RunningMean, bn.RunningVar)
	}
	return out
}
