package nn

import (
	"math"
	"testing"

	"salient/internal/mfg"
	"salient/internal/rng"
	"salient/internal/tensor"
)

// testBlock builds a small 1-layer block: 3 destinations, 6 sources,
// varying sampled degrees (including an isolated destination).
func testBlock() *mfg.Block {
	return &mfg.Block{
		DstPtr: []int32{0, 2, 5, 5}, // dst 2 has no sampled neighbors
		Src:    []int32{3, 4, 0, 5, 1},
		NumDst: 3,
		NumSrc: 6,
	}
}

func randInput(r *rng.Rand, rows, cols int) *tensor.Dense {
	x := tensor.New(rows, cols)
	for i := range x.Data {
		x.Data[i] = float32(r.NormFloat64())
	}
	return x
}

// numGradParams verifies analytic parameter gradients of fn (a scalar loss
// evaluated after calling forward+backward once) against central finite
// differences, for every parameter element.
func numGradParams(t *testing.T, params []*Param, loss func() float64, runBackward func(), tol float64) {
	t.Helper()
	ZeroGrad(params)
	runBackward()
	const eps = 1e-3
	for _, p := range params {
		for i := range p.W.Data {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			up := loss()
			p.W.Data[i] = orig - eps
			down := loss()
			p.W.Data[i] = orig
			numeric := (up - down) / (2 * eps)
			analytic := float64(p.G.Data[i])
			if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: numeric %.6f analytic %.6f", p.Name, i, numeric, analytic)
			}
		}
	}
}

func TestLinearForwardShapes(t *testing.T) {
	r := rng.New(1)
	l := NewLinear("l", 4, 3, true, r)
	x := randInput(r, 5, 4)
	y := l.Forward(x, true)
	if y.Rows != 5 || y.Cols != 3 {
		t.Fatalf("shape %dx%d", y.Rows, y.Cols)
	}
}

func TestLinearGradCheck(t *testing.T) {
	r := rng.New(2)
	l := NewLinear("l", 3, 2, true, r)
	x := randInput(r, 4, 3)
	labels := []int32{0, 1, 0, 1}

	loss := func() float64 {
		y := l.Forward(x, false)
		y.LogSoftmaxRows()
		return tensor.NLLLoss(y, labels, nil)
	}
	runBackward := func() {
		y := l.Forward(x, true)
		y.LogSoftmaxRows()
		dLogp := tensor.New(y.Rows, y.Cols)
		tensor.NLLLoss(y, labels, dLogp)
		d := tensor.New(y.Rows, y.Cols)
		tensor.LogSoftmaxBackward(d, y, dLogp)
		l.Backward(d)
	}
	numGradParams(t, l.Params(), loss, runBackward, 2e-2)
}

func TestLinearInputGradient(t *testing.T) {
	r := rng.New(3)
	l := NewLinear("l", 3, 2, false, r)
	x := randInput(r, 2, 3)
	labels := []int32{1, 0}

	forwardLoss := func() float64 {
		y := l.Forward(x, false)
		y.LogSoftmaxRows()
		return tensor.NLLLoss(y, labels, nil)
	}
	y := l.Forward(x, true)
	y.LogSoftmaxRows()
	dLogp := tensor.New(y.Rows, y.Cols)
	tensor.NLLLoss(y, labels, dLogp)
	d := tensor.New(y.Rows, y.Cols)
	tensor.LogSoftmaxBackward(d, y, dLogp)
	dx := l.Backward(d)

	const eps = 1e-3
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := forwardLoss()
		x.Data[i] = orig - eps
		down := forwardLoss()
		x.Data[i] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-float64(dx.Data[i])) > 1e-2*(1+math.Abs(numeric)) {
			t.Fatalf("dx[%d]: numeric %.6f analytic %.6f", i, numeric, dx.Data[i])
		}
	}
}

// convLossHarness wraps a conv layer into a scalar loss over a fixed block
// for finite-difference checks: loss = NLL(logsoftmax(conv(x)), labels).
func convGradCheck(t *testing.T, c conv, in int, tol float64) {
	t.Helper()
	r := rng.New(7)
	blk := testBlock()
	x := randInput(r, int(blk.NumSrc), in)
	labels := []int32{0, 1, 0}

	loss := func() float64 {
		y := c.Forward(x, blk, true)
		lp := y.Clone()
		lp.LogSoftmaxRows()
		return tensor.NLLLoss(lp, labels, nil)
	}
	runBackward := func() {
		y := c.Forward(x, blk, true)
		lp := y.Clone()
		lp.LogSoftmaxRows()
		dLogp := tensor.New(lp.Rows, lp.Cols)
		tensor.NLLLoss(lp, labels, dLogp)
		d := tensor.New(lp.Rows, lp.Cols)
		tensor.LogSoftmaxBackward(d, lp, dLogp)
		c.Backward(d)
	}
	numGradParams(t, c.Params(), loss, runBackward, tol)

	// Input gradient check.
	ZeroGrad(c.Params())
	y := c.Forward(x, blk, true)
	lp := y.Clone()
	lp.LogSoftmaxRows()
	dLogp := tensor.New(lp.Rows, lp.Cols)
	tensor.NLLLoss(lp, labels, dLogp)
	d := tensor.New(lp.Rows, lp.Cols)
	tensor.LogSoftmaxBackward(d, lp, dLogp)
	dx := c.Backward(d)
	const eps = 1e-3
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := loss()
		x.Data[i] = orig - eps
		down := loss()
		x.Data[i] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-float64(dx.Data[i])) > tol*(1+math.Abs(numeric)) {
			t.Fatalf("dx[%d]: numeric %.6f analytic %.6f", i, numeric, dx.Data[i])
		}
	}
}

func TestSAGEConvGradCheck(t *testing.T) {
	convGradCheck(t, NewSAGEConv("s", 3, 4, rng.New(11)), 3, 2e-2)
}

func TestGATConvGradCheck(t *testing.T) {
	convGradCheck(t, NewGATConv("g", 3, 4, rng.New(12)), 3, 3e-2)
}

func TestGINConvGradCheck(t *testing.T) {
	// BatchNorm in train mode makes this the strictest layer test.
	convGradCheck(t, NewGINConv("gin", 3, 4, rng.New(13)), 3, 5e-2)
}

func TestSAGEConvMeanSemantics(t *testing.T) {
	// With identity-like weights, output = mean(neighbors) + self.
	r := rng.New(5)
	c := NewSAGEConv("s", 2, 2, r)
	// Force identity weights.
	c.WNeigh.W.Zero()
	c.WRoot.W.Zero()
	c.WNeigh.W.Set(0, 0, 1)
	c.WNeigh.W.Set(1, 1, 1)
	c.WRoot.W.Set(0, 0, 1)
	c.WRoot.W.Set(1, 1, 1)
	blk := testBlock()
	x := tensor.New(int(blk.NumSrc), 2)
	for i := 0; i < x.Rows; i++ {
		x.Set(i, 0, float32(i))
		x.Set(i, 1, float32(i)*10)
	}
	y := c.Forward(x, blk, false)
	// dst 0: neighbors {3,4}: mean col0 = 3.5; + self (0) => 3.5.
	if math.Abs(float64(y.At(0, 0))-3.5) > 1e-5 {
		t.Fatalf("dst0 = %v, want 3.5", y.At(0, 0))
	}
	// dst 2: no neighbors: y = self = 2.
	if math.Abs(float64(y.At(2, 0))-2) > 1e-5 {
		t.Fatalf("isolated dst = %v, want 2", y.At(2, 0))
	}
}

func TestGATAttentionIsConvexCombination(t *testing.T) {
	// With W = I, y_v is a convex combination of neighbor features, so each
	// output coordinate lies within the [min,max] of participating inputs.
	r := rng.New(6)
	c := NewGATConv("g", 2, 2, r)
	c.W.W.Zero()
	c.W.W.Set(0, 0, 1)
	c.W.W.Set(1, 1, 1)
	blk := testBlock()
	x := randInput(r, int(blk.NumSrc), 2)
	y := c.Forward(x, blk, false)
	for v := 0; v < int(blk.NumDst); v++ {
		participants := append([]int32{int32(v)}, blk.Neighbors(int32(v))...)
		for j := 0; j < 2; j++ {
			lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
			for _, u := range participants {
				f := x.At(int(u), j)
				if f < lo {
					lo = f
				}
				if f > hi {
					hi = f
				}
			}
			got := y.At(v, j)
			if got < lo-1e-4 || got > hi+1e-4 {
				t.Fatalf("dst %d col %d: %v outside [%v,%v]", v, j, got, lo, hi)
			}
		}
	}
}

func TestBatchNormTrainStats(t *testing.T) {
	bn := NewBatchNorm("bn", 3)
	r := rng.New(8)
	x := randInput(r, 64, 3)
	x.Scale(3)
	y := bn.Forward(x, true)
	// Output columns must be ~zero-mean unit-variance.
	for j := 0; j < 3; j++ {
		var mean, varia float64
		for i := 0; i < y.Rows; i++ {
			mean += float64(y.At(i, j))
		}
		mean /= float64(y.Rows)
		for i := 0; i < y.Rows; i++ {
			d := float64(y.At(i, j)) - mean
			varia += d * d
		}
		varia /= float64(y.Rows)
		if math.Abs(mean) > 1e-4 || math.Abs(varia-1) > 1e-3 {
			t.Fatalf("col %d: mean %v var %v", j, mean, varia)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	r := rng.New(9)
	// Feed several training batches so running stats converge toward the
	// data distribution (mean 5, std 2).
	for it := 0; it < 200; it++ {
		x := tensor.New(32, 2)
		for i := range x.Data {
			x.Data[i] = float32(5 + 2*r.NormFloat64())
		}
		bn.Forward(x, true)
	}
	// In eval mode, an input at the running mean maps to ~beta (0).
	probe := tensor.New(1, 2)
	probe.Fill(5)
	y := bn.Forward(probe, false)
	for j := 0; j < 2; j++ {
		if math.Abs(float64(y.At(0, j))) > 0.15 {
			t.Fatalf("eval output at mean = %v, want ~0", y.At(0, j))
		}
	}
}

func TestBatchNormGradCheck(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	r := rng.New(10)
	x := randInput(r, 6, 2)
	labels := []int32{0, 1, 0, 1, 0, 1}
	loss := func() float64 {
		y := bn.Forward(x, true)
		y.LogSoftmaxRows()
		return tensor.NLLLoss(y, labels, nil)
	}
	runBackward := func() {
		y := bn.Forward(x, true)
		lp := y.Clone()
		lp.LogSoftmaxRows()
		dLogp := tensor.New(lp.Rows, lp.Cols)
		tensor.NLLLoss(lp, labels, dLogp)
		d := tensor.New(lp.Rows, lp.Cols)
		tensor.LogSoftmaxBackward(d, lp, dLogp)
		bn.Backward(d)
	}
	// Note: running stats drift across repeated forwards, but train-mode
	// output depends only on batch stats, so finite differences are valid.
	numGradParams(t, bn.Params(), loss, runBackward, 2e-2)
}

func TestDropoutTrainEval(t *testing.T) {
	d := NewDropout(0.5)
	r := rng.New(11)
	x := tensor.New(50, 20)
	x.Fill(1)
	yEval := d.Forward(x, false, r)
	if yEval != x {
		t.Fatal("eval dropout must be identity (same tensor)")
	}
	yTrain := d.Forward(x, true, r)
	zeros, twos := 0, 0
	for _, v := range yTrain.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout value %v", v)
		}
	}
	if zeros < 300 || zeros > 700 {
		t.Fatalf("dropout rate off: %d/1000 zeroed", zeros)
	}
	// Backward zeroes the same positions.
	dy := tensor.New(50, 20)
	dy.Fill(1)
	dx := d.Backward(dy)
	for i, v := range yTrain.Data {
		if (v == 0) != (dx.Data[i] == 0) {
			t.Fatalf("mask mismatch at %d", i)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||W - target||^2 via Adam using explicit gradients.
	p := NewParam("w", 2, 2)
	target := []float32{1, -2, 3, 0.5}
	opt := NewAdam([]*Param{p}, 0.05)
	for it := 0; it < 2000; it++ {
		p.ZeroGrad()
		for i := range p.W.Data {
			p.G.Data[i] = 2 * (p.W.Data[i] - target[i])
		}
		opt.Step([]*Param{p})
	}
	for i := range target {
		if math.Abs(float64(p.W.Data[i]-target[i])) > 1e-3 {
			t.Fatalf("W[%d] = %v, want %v", i, p.W.Data[i], target[i])
		}
	}
}

func TestAdamStepMismatchPanics(t *testing.T) {
	p := NewParam("w", 1, 1)
	opt := NewAdam([]*Param{p}, 0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Step did not panic")
		}
	}()
	opt.Step(nil)
}
