package nn

import (
	"math"

	"salient/internal/tensor"
)

// BatchNorm is 1-D batch normalization over feature columns with running
// statistics (torch.nn.BatchNorm1d semantics: biased variance for
// normalization, momentum-0.1 running updates, eval mode uses running stats).
type BatchNorm struct {
	Gamma *Param // 1 × C
	Beta  *Param // 1 × C

	RunningMean []float32
	RunningVar  []float32
	Momentum    float32
	Eps         float32

	// Backward caches.
	xhat   *tensor.Dense
	invStd []float32
}

// NewBatchNorm creates a batch-norm layer over dim features.
func NewBatchNorm(name string, dim int) *BatchNorm {
	bn := &BatchNorm{
		Gamma:       NewParam(name+".gamma", 1, dim),
		Beta:        NewParam(name+".beta", 1, dim),
		RunningMean: make([]float32, dim),
		RunningVar:  make([]float32, dim),
		Momentum:    0.1,
		Eps:         1e-5,
	}
	bn.Gamma.W.Fill(1)
	for i := range bn.RunningVar {
		bn.RunningVar[i] = 1
	}
	return bn
}

// Forward normalizes x. In training mode it uses batch statistics and
// updates the running estimates; in eval mode it uses the running estimates
// and writes no field.
func (bn *BatchNorm) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	c := x.Cols
	n := x.Rows
	y := tensor.New(n, c)
	if !train || n == 0 {
		for i := 0; i < n; i++ {
			xr, yr := x.Row(i), y.Row(i)
			for j := 0; j < c; j++ {
				inv := 1 / float32(math.Sqrt(float64(bn.RunningVar[j]+bn.Eps)))
				yr[j] = bn.Gamma.W.Data[j]*(xr[j]-bn.RunningMean[j])*inv + bn.Beta.W.Data[j]
			}
		}
		return y
	}

	mean := make([]float32, c)
	variance := make([]float32, c)
	for i := 0; i < n; i++ {
		xr := x.Row(i)
		for j, v := range xr {
			mean[j] += v
		}
	}
	invN := 1 / float32(n)
	for j := range mean {
		mean[j] *= invN
	}
	for i := 0; i < n; i++ {
		xr := x.Row(i)
		for j, v := range xr {
			d := v - mean[j]
			variance[j] += d * d
		}
	}
	for j := range variance {
		variance[j] *= invN
	}

	bn.invStd = make([]float32, c)
	for j := range bn.invStd {
		bn.invStd[j] = 1 / float32(math.Sqrt(float64(variance[j]+bn.Eps)))
	}
	bn.xhat = tensor.New(n, c)
	for i := 0; i < n; i++ {
		xr, hr, yr := x.Row(i), bn.xhat.Row(i), y.Row(i)
		for j := 0; j < c; j++ {
			h := (xr[j] - mean[j]) * bn.invStd[j]
			hr[j] = h
			yr[j] = bn.Gamma.W.Data[j]*h + bn.Beta.W.Data[j]
		}
	}

	// Running stats use the unbiased variance, as torch does.
	unbias := float32(1)
	if n > 1 {
		unbias = float32(n) / float32(n-1)
	}
	for j := 0; j < c; j++ {
		bn.RunningMean[j] = (1-bn.Momentum)*bn.RunningMean[j] + bn.Momentum*mean[j]
		bn.RunningVar[j] = (1-bn.Momentum)*bn.RunningVar[j] + bn.Momentum*variance[j]*unbias
	}
	return y
}

// Backward returns dx and accumulates dGamma/dBeta from the statistics of
// the last training-mode Forward; eval-mode forwards leave them alone.
func (bn *BatchNorm) Backward(dy *tensor.Dense) *tensor.Dense {
	if bn.xhat == nil {
		panic("nn: BatchNorm.Backward without a training-mode Forward") //lint:allow panicdiscipline API misuse guard: Backward without Forward has no saved statistics to use
	}
	n, c := dy.Rows, dy.Cols
	sumDy := make([]float32, c)
	sumDyXhat := make([]float32, c)
	for i := 0; i < n; i++ {
		dr, hr := dy.Row(i), bn.xhat.Row(i)
		for j := 0; j < c; j++ {
			sumDy[j] += dr[j]
			sumDyXhat[j] += dr[j] * hr[j]
			bn.Gamma.G.Data[j] += dr[j] * hr[j]
			bn.Beta.G.Data[j] += dr[j]
		}
	}
	dx := tensor.New(n, c)
	invN := 1 / float32(n)
	for i := 0; i < n; i++ {
		dr, hr, xr := dy.Row(i), bn.xhat.Row(i), dx.Row(i)
		for j := 0; j < c; j++ {
			xr[j] = bn.Gamma.W.Data[j] * bn.invStd[j] *
				(dr[j] - invN*sumDy[j] - hr[j]*invN*sumDyXhat[j])
		}
	}
	return dx
}

// Params returns the trainable parameters.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }
