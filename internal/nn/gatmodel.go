package nn

import (
	"salient/internal/mfg"
	"salient/internal/rng"
	"salient/internal/tensor"
)

// GATModel stacks single-head GATConv layers with ReLU + dropout(0.5)
// between layers (appendix Listing 2).
type GATModel struct {
	convs []conv
	drops []*Dropout
	r     *rng.Rand

	reluMasks [][]bool
	logp      *tensor.Dense
}

// NewGAT builds the attention model; the final layer maps to cfg.Out.
func NewGAT(cfg ModelConfig) *GATModel {
	cfg.check()
	r := rng.New(cfg.Seed)
	m := &GATModel{r: r}
	in := cfg.In
	for l := 0; l < cfg.Layers; l++ {
		out := cfg.Hidden
		if l == cfg.Layers-1 {
			out = cfg.Out
		}
		c := NewGATConv(layerName("gat", l), in, out, r)
		c.inputLayer = l == 0
		m.convs = append(m.convs, c)
		m.drops = append(m.drops, NewDropout(0.5))
		in = out
	}
	m.reluMasks = make([][]bool, cfg.Layers)
	return m
}

// Name implements Model.
func (m *GATModel) Name() string { return "GAT" }

// Layers implements Model.
func (m *GATModel) Layers() int { return len(m.convs) }

// ReseedDropout re-keys the dropout RNG stream (nn.DropoutReseeder).
func (m *GATModel) ReseedDropout(seed uint64) { m.r.Reseed(seed) }

// Forward implements Model.
func (m *GATModel) Forward(x *tensor.Dense, g *mfg.MFG, train bool) *tensor.Dense {
	L := len(m.convs)
	for i := 0; i < L; i++ {
		x = m.convs[i].Forward(x, &g.Blocks[i], train)
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
func (m *GATModel) Backward(dLogp *tensor.Dense) {
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
		}
		d = m.convs[i].Backward(d)
	}
}

// Params implements Model.
func (m *GATModel) Params() []*Param { return collectParams(m.convs) }
