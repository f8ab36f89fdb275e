package nn

import (
	"fmt"

	"salient/internal/mfg"
	"salient/internal/rng"
	"salient/internal/slicing"
	"salient/internal/tensor"
)

// GraphSAGE is the paper's principal architecture (appendix Listing 1):
// a stack of SAGEConv layers with ReLU + dropout(0.5) between layers and a
// log-softmax head.
type GraphSAGE struct {
	convs []conv
	drops []*Dropout
	r     *rng.Rand

	// Backward caches.
	reluMasks [][]bool
	logp      *tensor.Dense
}

// NewGraphSAGE builds the model; the final layer maps to cfg.Out classes.
func NewGraphSAGE(cfg ModelConfig) *GraphSAGE {
	cfg.check()
	r := rng.New(cfg.Seed)
	m := &GraphSAGE{r: r}
	in := cfg.In
	for l := 0; l < cfg.Layers; l++ {
		out := cfg.Hidden
		if l == cfg.Layers-1 {
			out = cfg.Out
		}
		c := NewSAGEConv(layerName("sage", l), in, out, r)
		c.inputLayer = l == 0
		m.convs = append(m.convs, c)
		m.drops = append(m.drops, NewDropout(0.5))
		in = out
	}
	m.reluMasks = make([][]bool, cfg.Layers)
	return m
}

func layerName(prefix string, l int) string {
	return fmt.Sprintf("%s.%d", prefix, l)
}

// Name implements Model.
func (m *GraphSAGE) Name() string { return "SAGE" }

// Layers implements Model.
func (m *GraphSAGE) Layers() int { return len(m.convs) }

// ReseedDropout re-keys the dropout RNG stream (nn.DropoutReseeder).
func (m *GraphSAGE) ReseedDropout(seed uint64) { m.r.Reseed(seed) }

// Forward implements Model.
func (m *GraphSAGE) Forward(x *tensor.Dense, g *mfg.MFG, train bool) *tensor.Dense {
	x = m.convs[0].Forward(x, &g.Blocks[0], train)
	return m.finishForward(x, g, train)
}

// FusedOp implements FusedModel: the first SAGE layer mean-aggregates.
func (m *GraphSAGE) FusedOp() slicing.AggOp { return slicing.AggMean }

// ForwardFused implements FusedModel: layer 0 consumes the pre-aggregated
// batch, the rest of the stack is the staged path.
func (m *GraphSAGE) ForwardFused(agg, xt *tensor.Dense, g *mfg.MFG, train bool) *tensor.Dense {
	x := m.convs[0].(*SAGEConv).ForwardFused(agg, xt, &g.Blocks[0], train)
	return m.finishForward(x, g, train)
}

// ForwardLayer1 implements ResumeModel: layer 0 alone.
func (m *GraphSAGE) ForwardLayer1(x *tensor.Dense, g *mfg.MFG, train bool) *tensor.Dense {
	return m.convs[0].Forward(x, &g.Blocks[0], train)
}

// ForwardRest implements ResumeModel: the stack after layer 0. Mutates h1
// in place (inter-layer ReLU).
func (m *GraphSAGE) ForwardRest(h1 *tensor.Dense, g *mfg.MFG, train bool) *tensor.Dense {
	return m.finishForward(h1, g, train)
}

// finishForward runs the stack after layer 0's output x: inter-layer
// ReLU+dropout, layers 1..L-1, and the log-softmax head.
func (m *GraphSAGE) finishForward(x *tensor.Dense, g *mfg.MFG, train bool) *tensor.Dense {
	L := len(m.convs)
	for i := 0; i < L; i++ {
		if i > 0 {
			x = m.convs[i].Forward(x, &g.Blocks[i], train)
		}
		if i != L-1 {
			var mask []bool
			if train {
				mask = make([]bool, len(x.Data))
				m.reluMasks[i] = mask
			}
			x.ReLU(mask)
			x = m.drops[i].Forward(x, train, m.r)
		}
	}
	x.LogSoftmaxRows()
	if train {
		m.logp = x
	}
	return x
}

// Backward implements Model.
func (m *GraphSAGE) Backward(dLogp *tensor.Dense) {
	d := tensor.New(m.logp.Rows, m.logp.Cols)
	tensor.LogSoftmaxBackward(d, m.logp, dLogp)
	L := len(m.convs)
	for i := L - 1; i >= 0; i-- {
		if i != L-1 {
			d = m.drops[i].Backward(d)
			for k := range d.Data {
				if !m.reluMasks[i][k] {
					d.Data[k] = 0
				}
			}
			m.reluMasks[i] = nil // spent; see SAGEConv.release
		}
		d = m.convs[i].Backward(d)
	}
}

// Params implements Model.
func (m *GraphSAGE) Params() []*Param { return collectParams(m.convs) }
