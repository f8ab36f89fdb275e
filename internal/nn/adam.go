package nn

import (
	"math"

	"salient/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2015) with bias
// correction, matching torch.optim.Adam defaults.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	t int
	m []*tensor.Dense // first-moment estimates, aligned with params
	v []*tensor.Dense // second-moment estimates
}

// NewAdam creates an optimizer for the given parameter list.
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	a.m = make([]*tensor.Dense, len(params))
	a.v = make([]*tensor.Dense, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.W.Rows, p.W.Cols)
		a.v[i] = tensor.New(p.W.Rows, p.W.Cols)
	}
	return a
}

// Step applies one update using the gradients currently accumulated in
// params. The params slice must be the same (order included) as at
// construction.
func (a *Adam) Step(params []*Param) {
	if len(params) != len(a.m) {
		panic("nn: Adam.Step with mismatched parameter list") //lint:allow panicdiscipline API misuse guard: the optimizer is bound to one parameter list at construction
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		m, v := a.m[i], a.v[i]
		b1, b2 := float32(a.Beta1), float32(a.Beta2)
		for j, g := range p.G.Data {
			m.Data[j] = b1*m.Data[j] + (1-b1)*g
			v.Data[j] = b2*v.Data[j] + (1-b2)*g*g
			mHat := float64(m.Data[j]) / bc1
			vHat := float64(v.Data[j]) / bc2
			p.W.Data[j] -= float32(a.LR * mHat / (math.Sqrt(vHat) + a.Eps))
		}
	}
}

// ZeroGrad clears every parameter gradient.
func ZeroGrad(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}
