package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"salient/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randDense(r *rng.Rand, rows, cols int) *Dense {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = float32(r.NormFloat64())
	}
	return t
}

// naiveMatMul is the reference O(n^3) triple loop in ijk order.
func naiveMatMul(a, b *Dense) *Dense {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			c.Set(i, j, float32(s))
		}
	}
	return c
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	dst := New(2, 2)
	MatMul(dst, a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("matmul[%d] = %v, want %v", i, dst.Data[i], w)
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a, b := randDense(r, m, k), randDense(r, k, n)
		got := New(m, n)
		MatMul(got, a, b)
		want := naiveMatMul(a, b)
		if got.MaxAbsDiff(want) > 1e-4 {
			t.Fatalf("trial %d: matmul diverges from naive by %v", trial, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulATMatchesExplicitTranspose(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		m, rr, c := 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10)
		a, b := randDense(r, m, rr), randDense(r, m, c)
		got := New(rr, c)
		MatMulAT(got, a, b)
		// aT
		at := New(rr, m)
		for i := 0; i < m; i++ {
			for j := 0; j < rr; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		want := naiveMatMul(at, b)
		if got.MaxAbsDiff(want) > 1e-4 {
			t.Fatalf("matmulAT diverges by %v", got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulBTMatchesExplicitTranspose(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 20; trial++ {
		m, rr, c := 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10)
		a, b := randDense(r, m, c), randDense(r, rr, c)
		got := New(m, rr)
		MatMulBT(got, a, b)
		bt := New(c, rr)
		for i := 0; i < rr; i++ {
			for j := 0; j < c; j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		want := naiveMatMul(a, bt)
		if got.MaxAbsDiff(want) > 1e-4 {
			t.Fatalf("matmulBT diverges by %v", got.MaxAbsDiff(want))
		}
	}
}

// refMatMul, refMatMulAT and refMatMulBT are the plain single-accumulator
// kernels the blocked ones replace: ikj with a per-element zero skip, the
// m-outer transpose loop with the same skip, and one serial dot product per
// output. They are the bit-exact oracle for MatMul, MatMulAT and MatMulBT.
// Products are rounded to float32 explicitly, as in the kernels, so no build
// setting can fuse them into multiply-adds.
func refMatMul(dst, a, b *Dense) {
	dst.Zero()
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : k*n+n]
			for j, bv := range brow {
				drow[j] += float32(av * bv)
			}
		}
	}
}

func refMatMulAT(dst, a, b *Dense) {
	dst.Zero()
	c := b.Cols
	for m := 0; m < a.Rows; m++ {
		arow := a.Row(m)
		brow := b.Row(m)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Data[i*c : i*c+c]
			for j, bv := range brow {
				drow[j] += float32(av * bv)
			}
		}
	}
}

func refMatMulBT(dst, a, b *Dense) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var sum float32
			for k, av := range arow {
				sum += float32(av * brow[k])
			}
			drow[j] = sum
		}
	}
}

// fillMode selects the value distribution of an oracle operand.
type fillMode int

const (
	fillNormal  fillMode = iota // dense N(0,1)
	fillReLU                    // ~60% zeros, as after a ReLU
	fillSparse                  // ~90% zeros, so whole 4-blocks are zero
	fillNegZero                 // zero-heavy with zeros split between +0 and -0
	numFillModes
)

func fillOperand(r *rng.Rand, t *Dense, mode fillMode) {
	negZero := float32(math.Copysign(0, -1))
	for i := range t.Data {
		v := float32(r.NormFloat64())
		switch mode {
		case fillReLU:
			if v < 0.25 {
				v = 0
			}
		case fillSparse:
			if r.Float64() < 0.9 {
				v = 0
			}
		case fillNegZero:
			if r.Float64() < 0.6 {
				v = 0
				if r.Intn(2) == 0 {
					v = negZero
				}
			}
		}
		t.Data[i] = v
	}
}

// TestMatMulKernelsBitExact checks the blocked MatMul, MatMulAT and MatMulBT
// against the reference kernels by Float32bits equality: every shape with
// each dimension in 0..9 (every remainder mod 4, plus empty rows, columns
// and inner dimension), larger random shapes, and operands that are dense,
// ReLU-like, mostly zero, or contain -0. Destinations start full of NaN so
// a kernel that fails to overwrite an output shows up too.
func TestMatMulKernelsBitExact(t *testing.T) {
	// Each kernel maps dims (p, q, s) to operand and destination shapes.
	kernels := []struct {
		name      string
		got, want func(dst, a, b *Dense)
		shapes    func(p, q, s int) (a, b, dst [2]int)
	}{
		{"MatMul", MatMul, refMatMul, func(p, q, s int) (a, b, dst [2]int) {
			return [2]int{p, q}, [2]int{q, s}, [2]int{p, s}
		}},
		{"MatMulAT", MatMulAT, refMatMulAT, func(p, q, s int) (a, b, dst [2]int) {
			return [2]int{p, q}, [2]int{p, s}, [2]int{q, s}
		}},
		{"MatMulBT", MatMulBT, refMatMulBT, func(p, q, s int) (a, b, dst [2]int) {
			return [2]int{p, q}, [2]int{s, q}, [2]int{p, s}
		}},
	}
	type dims struct{ p, q, s int }
	var cases []dims
	for p := 0; p < 10; p++ {
		for q := 0; q < 10; q++ {
			for s := 0; s < 10; s++ {
				cases = append(cases, dims{p, q, s})
			}
		}
	}
	r := rng.New(42)
	for i := 0; i < 40; i++ {
		cases = append(cases, dims{r.Intn(70), r.Intn(70), r.Intn(70)})
	}
	nan := float32(math.NaN())
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			r := rng.New(7)
			for _, c := range cases {
				for mode := fillMode(0); mode < numFillModes; mode++ {
					as, bs, ds := k.shapes(c.p, c.q, c.s)
					a, b := New(as[0], as[1]), New(bs[0], bs[1])
					fillOperand(r, a, mode)
					bMode := fillNormal
					if mode%2 == 1 {
						bMode = fillNegZero
					}
					fillOperand(r, b, bMode)
					got, want := New(ds[0], ds[1]), New(ds[0], ds[1])
					got.Fill(nan)
					want.Fill(nan)
					k.got(got, a, b)
					k.want(want, a, b)
					for i := range want.Data {
						if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
							t.Fatalf("dims %v mode %d: out[%d] = %v (%#x), reference %v (%#x)", c, mode, i,
								got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
						}
					}
				}
			}
		})
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched matmul did not panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(4, 2))
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(2, 2, []float32{1, 2, 3, 4})
	b := FromSlice(2, 2, []float32{10, 20, 30, 40})
	a.Add(b)
	if a.At(1, 1) != 44 {
		t.Fatalf("Add: %v", a.Data)
	}
	a.Sub(b)
	if a.At(0, 0) != 1 {
		t.Fatalf("Sub: %v", a.Data)
	}
	a.Scale(0.5)
	if a.At(0, 1) != 1 {
		t.Fatalf("Scale: %v", a.Data)
	}
	a.AddRowVec([]float32{100, 200})
	if !almostEq(float64(a.At(1, 1)), 202, 1e-5) {
		t.Fatalf("AddRowVec: %v", a.Data)
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	r := rng.New(4)
	src := randDense(r, 10, 4)
	idx := []int32{3, 7, 1, 3} // includes a duplicate
	dst := New(4, 4)
	Gather(dst, src, idx)
	for i, id := range idx {
		for j := 0; j < 4; j++ {
			if dst.At(i, j) != src.At(int(id), j) {
				t.Fatalf("gather mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestReLU(t *testing.T) {
	a := FromSlice(1, 4, []float32{-1, 0, 2, -3})
	mask := make([]bool, 4)
	a.ReLU(mask)
	want := []float32{0, 0, 2, 0}
	wantMask := []bool{false, false, true, false}
	for i := range want {
		if a.Data[i] != want[i] || mask[i] != wantMask[i] {
			t.Fatalf("relu[%d] = %v mask %v", i, a.Data[i], mask[i])
		}
	}
}

func TestLeakyReLU(t *testing.T) {
	a := FromSlice(1, 3, []float32{-2, 0, 4})
	a.LeakyReLU(0.1, nil)
	if !almostEq(float64(a.Data[0]), -0.2, 1e-6) || a.Data[2] != 4 {
		t.Fatalf("leaky relu: %v", a.Data)
	}
}

func TestLogSoftmaxRowsSumToOne(t *testing.T) {
	r := rng.New(5)
	a := randDense(r, 8, 10)
	a.Scale(5) // widen the range to test stability
	a.LogSoftmaxRows()
	for i := 0; i < a.Rows; i++ {
		var sum float64
		for _, v := range a.Row(i) {
			sum += math.Exp(float64(v))
		}
		if !almostEq(sum, 1, 1e-4) {
			t.Fatalf("row %d probs sum to %v", i, sum)
		}
	}
}

func TestLogSoftmaxExtremeValues(t *testing.T) {
	a := FromSlice(1, 3, []float32{1000, 999, -1000})
	a.LogSoftmaxRows()
	for _, v := range a.Data {
		if math.IsNaN(float64(v)) || v > 0 {
			t.Fatalf("log softmax unstable: %v", a.Data)
		}
	}
}

func TestNLLLoss(t *testing.T) {
	logp := FromSlice(2, 3, []float32{-0.5, -1, -2, -3, -0.1, -4})
	labels := []int32{0, 1}
	grad := New(2, 3)
	loss := NLLLoss(logp, labels, grad)
	if !almostEq(loss, (0.5+0.1)/2, 1e-6) {
		t.Fatalf("loss = %v", loss)
	}
	if !almostEq(float64(grad.At(0, 0)), -0.5, 1e-6) || !almostEq(float64(grad.At(1, 1)), -0.5, 1e-6) {
		t.Fatalf("grad: %v", grad.Data)
	}
	if grad.At(0, 1) != 0 {
		t.Fatal("grad nonzero at non-label position")
	}
}

func TestNLLLossIgnoresNegativeLabels(t *testing.T) {
	logp := FromSlice(2, 2, []float32{-1, -2, -3, -4})
	loss := NLLLoss(logp, []int32{-1, 0}, nil)
	if !almostEq(loss, 3, 1e-6) {
		t.Fatalf("masked loss = %v, want 3", loss)
	}
	if NLLLoss(logp, []int32{-1, -1}, nil) != 0 {
		t.Fatal("all-masked loss should be 0")
	}
}

// TestLogSoftmaxBackwardNumeric verifies the analytic log-softmax+NLL
// gradient against a central finite difference.
func TestLogSoftmaxBackwardNumeric(t *testing.T) {
	r := rng.New(6)
	x := randDense(r, 3, 5)
	labels := []int32{1, 4, 0}

	lossOf := func(m *Dense) float64 {
		c := m.Clone()
		c.LogSoftmaxRows()
		return NLLLoss(c, labels, nil)
	}

	// Analytic gradient.
	logp := x.Clone()
	logp.LogSoftmaxRows()
	dLogp := New(3, 5)
	NLLLoss(logp, labels, dLogp)
	dx := New(3, 5)
	LogSoftmaxBackward(dx, logp, dLogp)

	const eps = 1e-3
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := lossOf(x)
		x.Data[i] = orig - eps
		down := lossOf(x)
		x.Data[i] = orig
		numeric := (up - down) / (2 * eps)
		if !almostEq(numeric, float64(dx.Data[i]), 2e-3) {
			t.Fatalf("grad[%d]: numeric %v analytic %v", i, numeric, dx.Data[i])
		}
	}
}

func TestArgmaxRows(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 5, 2, 7, 0, 3})
	out := make([]int32, 2)
	a.ArgmaxRows(out)
	if out[0] != 1 || out[1] != 0 {
		t.Fatalf("argmax = %v", out)
	}
}

func TestMatMulLinearity(t *testing.T) {
	// Property: (a1+a2) @ b == a1@b + a2@b.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a1, a2, b := randDense(r, m, k), randDense(r, m, k), randDense(r, k, n)
		sum := a1.Clone()
		sum.Add(a2)
		left := New(m, n)
		MatMul(left, sum, b)
		r1, r2 := New(m, n), New(m, n)
		MatMul(r1, a1, b)
		MatMul(r2, a2, b)
		r1.Add(r2)
		return left.MaxAbsDiff(r1) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	r := rng.New(1)
	a := randDense(r, 256, 256)
	bb := randDense(r, 256, 256)
	dst := New(256, 256)
	b.SetBytes(int64(2 * 256 * 256 * 256 * 4 / 1e0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, bb)
	}
}

func BenchmarkMatMulAT(b *testing.B) {
	r := rng.New(1)
	a := randDense(r, 256, 256)
	bb := randDense(r, 256, 256)
	dst := New(256, 256)
	b.SetBytes(int64(2 * 256 * 256 * 256 * 4 / 1e0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulAT(dst, a, bb)
	}
}

func BenchmarkMatMulBT(b *testing.B) {
	r := rng.New(1)
	a := randDense(r, 256, 256)
	bb := randDense(r, 256, 256)
	dst := New(256, 256)
	b.SetBytes(int64(2 * 256 * 256 * 256 * 4 / 1e0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulBT(dst, a, bb)
	}
}

// BenchmarkLayer0 runs the three kernels at the shapes of the first SAGE
// layer in perfbench's train-sage workload (128 input features, hidden 64,
// a few thousand rows per batch): the forward x·W, the weight gradient
// xᵀ·dy and the input gradient dy·Wᵀ (which layer 0 itself no longer
// computes, but every later layer does at width 64).
func BenchmarkLayer0(b *testing.B) {
	const rows, in, out = 8192, 128, 64
	r := rng.New(3)
	x, w, dy := randDense(r, rows, in), randDense(r, in, out), randDense(r, rows, out)
	fwd, dW, dx := New(rows, out), New(in, out), New(rows, in)
	b.Run("MatMul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMul(fwd, x, w)
		}
	})
	b.Run("MatMulAT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulAT(dW, x, dy)
		}
	})
	b.Run("MatMulBT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulBT(dx, dy, w)
		}
	})
}

func BenchmarkGather1024x128(b *testing.B) {
	r := rng.New(2)
	src := randDense(r, 1<<16, 128)
	idx := make([]int32, 1024)
	for i := range idx {
		idx[i] = int32(r.Intn(1 << 16))
	}
	dst := New(1024, 128)
	b.SetBytes(1024 * 128 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gather(dst, src, idx)
	}
}

func TestCopy(t *testing.T) {
	a := FromSlice(2, 2, []float32{1, 2, 3, 4})
	b := New(2, 2)
	b.Copy(a)
	if b.MaxAbsDiff(a) != 0 {
		t.Fatal("Copy did not replicate contents")
	}
	b.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Fatal("Copy aliases the source")
	}
}

func TestShapePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("New negative", func() { New(-1, 3) })
	mustPanic("FromSlice mismatch", func() { FromSlice(2, 2, []float32{1}) })
	mustPanic("Add shape", func() { New(2, 2).Add(New(2, 3)) })
	mustPanic("MatMul inner", func() { MatMul(New(2, 2), New(2, 3), New(2, 2)) })
	mustPanic("MatMulAT shape", func() { MatMulAT(New(2, 2), New(3, 2), New(4, 2)) })
	mustPanic("MatMulBT shape", func() { MatMulBT(New(2, 2), New(2, 3), New(2, 4)) })
	mustPanic("Gather range", func() {
		Gather(New(1, 2), FromSlice(2, 2, []float32{1, 2, 3, 4}), []int32{5})
	})
	mustPanic("AddRowVec len", func() { New(2, 3).AddRowVec([]float32{1}) })
	mustPanic("ReLU mask len", func() { New(2, 2).ReLU(make([]bool, 1)) })
	mustPanic("LeakyReLU mask len", func() { New(2, 2).LeakyReLU(0.2, make([]bool, 1)) })
	mustPanic("ArgmaxRows len", func() { New(2, 2).ArgmaxRows(make([]int32, 1)) })
}

// Property: (A·B)ᵀ-free identities — MatMulAT(C, A, B) == Aᵀ·B and
// MatMulBT(C, A, B) == A·Bᵀ, checked against naive loops.
func TestMatMulVariantsAgainstNaive(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) < 24 {
			return true
		}
		a := FromSlice(3, 4, clampSlice(raw[:12]))
		b := FromSlice(3, 4, clampSlice(raw[12:24]))

		at := New(4, 4)
		MatMulAT(at, a, b) // aᵀ(4x3) · b(3x4)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				var want float32
				for k := 0; k < 3; k++ {
					want += a.At(k, i) * b.At(k, j)
				}
				if absf(at.At(i, j)-want) > 1e-3 {
					return false
				}
			}
		}

		bt := New(3, 3)
		MatMulBT(bt, a, b) // a(3x4) · bᵀ(4x3)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				var want float32
				for k := 0; k < 4; k++ {
					want += a.At(i, k) * b.At(j, k)
				}
				if absf(bt.At(i, j)-want) > 1e-3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func clampSlice(s []float32) []float32 {
	out := make([]float32, len(s))
	for i, v := range s {
		switch {
		case v != v || v > 10 || v < -10: // NaN or huge
			out[i] = 1
		default:
			out[i] = v
		}
	}
	return out
}

func absf(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
