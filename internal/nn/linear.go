package nn

import (
	"salient/internal/rng"
	"salient/internal/tensor"
)

// Linear is a fully connected layer y = xW (+ b when WithBias).
type Linear struct {
	Weight *Param // In × Out
	Bias   *Param // 1 × Out, nil when bias is disabled

	x *tensor.Dense // cached input for backward
}

// NewLinear creates a Glorot-initialized linear layer.
func NewLinear(name string, in, out int, withBias bool, r *rng.Rand) *Linear {
	l := &Linear{Weight: NewParam(name+".weight", in, out)}
	l.Weight.GlorotInit(r)
	if withBias {
		l.Bias = NewParam(name+".bias", 1, out)
	}
	return l
}

// Forward computes y = xW (+ b), caching x for backward when train is set.
func (l *Linear) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	if train {
		l.x = x
	}
	y := tensor.New(x.Rows, l.Weight.W.Cols)
	tensor.MatMul(y, x, l.Weight.W)
	if l.Bias != nil {
		y.AddRowVec(l.Bias.W.Data)
	}
	return y
}

// Backward accumulates dW (and db) and returns dx.
func (l *Linear) Backward(dy *tensor.Dense) *tensor.Dense {
	l.backwardParams(dy)
	dx := tensor.New(l.x.Rows, l.x.Cols)
	tensor.MatMulBT(dx, dy, l.Weight.W)
	return dx
}

// backwardParams accumulates dW (and db) only: the whole backward pass of
// a layer whose input takes no gradient.
func (l *Linear) backwardParams(dy *tensor.Dense) {
	dW := tensor.New(l.Weight.W.Rows, l.Weight.W.Cols)
	tensor.MatMulAT(dW, l.x, dy)
	l.Weight.G.Add(dW)
	if l.Bias != nil {
		for i := 0; i < dy.Rows; i++ {
			row := dy.Row(i)
			for j, v := range row {
				l.Bias.G.Data[j] += v
			}
		}
	}
}

// Params returns the trainable parameters.
func (l *Linear) Params() []*Param {
	if l.Bias != nil {
		return []*Param{l.Weight, l.Bias}
	}
	return []*Param{l.Weight}
}
