package nn

import (
	"salient/internal/rng"
	"salient/internal/tensor"
)

// Dropout zeroes each element with probability P during training and scales
// survivors by 1/(1-P) (inverted dropout, matching F.dropout). Eval mode is
// the identity.
type Dropout struct {
	P float32

	mask []bool
}

// NewDropout creates a dropout layer with drop probability p.
func NewDropout(p float32) *Dropout { return &Dropout{P: p} }

// Forward applies dropout in place on a copy of x and returns it. In eval
// mode it returns x and writes no field.
func (d *Dropout) Forward(x *tensor.Dense, train bool, r *rng.Rand) *tensor.Dense {
	if !train {
		return x
	}
	if d.P <= 0 {
		d.mask = nil
		return x
	}
	y := x.Clone()
	if cap(d.mask) < len(y.Data) {
		d.mask = make([]bool, len(y.Data))
	}
	d.mask = d.mask[:len(y.Data)]
	scale := 1 / (1 - d.P)
	for i := range y.Data {
		if r.Float32() < d.P {
			y.Data[i] = 0
			d.mask[i] = false
		} else {
			y.Data[i] *= scale
			d.mask[i] = true
		}
	}
	return y
}

// Backward masks and rescales the upstream gradient by the mask of the last
// training-mode Forward; eval-mode forwards leave that mask alone. It is the
// identity if that Forward dropped nothing (P <= 0).
func (d *Dropout) Backward(dy *tensor.Dense) *tensor.Dense {
	if d.mask == nil {
		return dy
	}
	dx := dy.Clone()
	scale := 1 / (1 - d.P)
	for i := range dx.Data {
		if d.mask[i] {
			dx.Data[i] *= scale
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}
