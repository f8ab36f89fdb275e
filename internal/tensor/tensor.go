// Package tensor implements the dense float32 linear algebra needed by the
// GNN layers: row-major 2-D matrices with matmul, gathers/scatters over node
// index lists, elementwise maps, and the reductions used by losses.
//
// It plays the role of the BLAS + torch.Tensor substrate in the paper's
// stack. Everything is row-major because the paper's baseline explicitly
// stores features row-major for cache-efficient slicing (§3, optimization i).
package tensor

import (
	"fmt"
	"math"
)

// Dense is a row-major matrix of float32. Rows×Cols may be 0.
type Dense struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// New returns a zeroed Rows×Cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", rows, cols)) //lint:allow panicdiscipline dimension contract: negative dims are a programmer error, like make
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float32) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols)) //lint:allow panicdiscipline dimension contract: data/shape mismatch is a programmer error
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy.
func (t *Dense) Clone() *Dense {
	c := New(t.Rows, t.Cols)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns t resized to rows×cols, reusing its backing array when it
// has the capacity and allocating a fresh matrix only when it does not (or
// when t is nil). Contents are unspecified after a capacity-reusing reshape;
// callers overwrite them. This is the scratch-recycling primitive the batch
// pipeline's consumers (decode targets, gradient buffers) use to stay
// allocation-free across batches whose row counts vary.
//
//salient:noalloc
func Reshape(t *Dense, rows, cols int) *Dense {
	if t == nil || cap(t.Data) < rows*cols {
		return New(rows, cols)
	}
	t.Rows, t.Cols = rows, cols
	t.Data = t.Data[:rows*cols]
	return t
}

// Row returns the i-th row as a slice aliasing the matrix storage.
func (t *Dense) Row(i int) []float32 {
	return t.Data[i*t.Cols : (i+1)*t.Cols]
}

// At returns element (i, j).
func (t *Dense) At(i, j int) float32 { return t.Data[i*t.Cols+j] }

// Set assigns element (i, j).
func (t *Dense) Set(i, j int, v float32) { t.Data[i*t.Cols+j] = v }

// Zero clears all elements in place.
func (t *Dense) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Dense) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Copy copies src into t; shapes must match.
func (t *Dense) Copy(src *Dense) {
	t.assertSameShape(src)
	copy(t.Data, src.Data)
}

func (t *Dense) assertSameShape(o *Dense) {
	if t.Rows != o.Rows || t.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", t.Rows, t.Cols, o.Rows, o.Cols)) //lint:allow panicdiscipline shape contract: the zero-alloc kernels document panics on shape errors
	}
}

// MatMul computes dst = a @ b. dst must be a.Rows×b.Cols and must not alias
// a or b.
//
// The kernel walks each row of a in ikj order, four k at a time: it loads
// a[i][k..k+3] and the four matching rows of b, then updates every output of
// the row once per block with d = d + a0·b0[j] + a1·b1[j] + a2·b2[j] +
// a3·b3[j], left to right, and a scalar loop handles the k remainder. Each
// output therefore adds its products in increasing k, exactly as the plain
// ikj loop does, and every product is rounded to float32 before it is added
// (no fused multiply-add), so results are bit-identical to that loop. A
// block is skipped only when all four a values are zero (ReLU outputs make
// that common). For finite b this matches skipping each zero individually:
// accumulators start at +0 and can never become -0, so adding a ±0 product
// leaves them unchanged. It differs only when a zero a meets an Inf or NaN
// in b inside a block that is not skipped, where the product is NaN.
//
//salient:noalloc
func MatMul(dst, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul inner dims %d vs %d", a.Cols, b.Rows)) //lint:allow panicdiscipline shape contract: the zero-alloc kernels document panics on shape errors
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: matmul dst shape") //lint:allow panicdiscipline shape contract: the zero-alloc kernels document panics on shape errors
	}
	dst.Zero()
	n, kn := b.Cols, a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*kn : i*kn+kn]
		drow := dst.Data[i*n : i*n+n]
		k := 0
		for ; k+4 <= kn; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b.Data[k*n:][:len(drow)]
			b1 := b.Data[(k+1)*n:][:len(drow)]
			b2 := b.Data[(k+2)*n:][:len(drow)]
			b3 := b.Data[(k+3)*n:][:len(drow)]
			for j := range drow {
				d := drow[j]
				d += float32(a0 * b0[j])
				d += float32(a1 * b1[j])
				d += float32(a2 * b2[j])
				d += float32(a3 * b3[j])
				drow[j] = d
			}
		}
		for ; k < kn; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Data[k*n:][:len(drow)]
			for j := range drow {
				drow[j] += float32(av * brow[j])
			}
		}
	}
}

// MatMulAT computes dst = aᵀ @ b where a is m×r, b is m×c, dst is r×c.
// Used in backward passes for weight gradients (dW = xᵀ @ dy).
//
// The shared row index m is unrolled by four: for each output row i the
// kernel loads a[m..m+3][i] and the four rows b[m..m+3], and updates the row
// once per block with the same left-to-right chain as MatMul, followed by a
// scalar loop over the m remainder. Each output adds its products in
// increasing m, rounded to float32 one at a time, so results are
// bit-identical to the plain m-outer loop. Zero skipping, and its Inf/NaN
// caveat, are the same as MatMul's: a block is skipped when all four a
// values are zero.
//
//salient:noalloc
func MatMulAT(dst, a, b *Dense) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulAT outer dims %d vs %d", a.Rows, b.Rows)) //lint:allow panicdiscipline shape contract: the zero-alloc kernels document panics on shape errors
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: matmulAT dst shape") //lint:allow panicdiscipline shape contract: the zero-alloc kernels document panics on shape errors
	}
	dst.Zero()
	c, r := b.Cols, a.Cols
	m := 0
	for ; m+4 <= a.Rows; m += 4 {
		a0 := a.Data[m*r:][:r]
		a1 := a.Data[(m+1)*r:][:r]
		a2 := a.Data[(m+2)*r:][:r]
		a3 := a.Data[(m+3)*r:][:r]
		b0 := b.Data[m*c:][:c]
		b1 := b.Data[(m+1)*c:][:c]
		b2 := b.Data[(m+2)*c:][:c]
		b3 := b.Data[(m+3)*c:][:c]
		for i := range a0 {
			v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			drow := dst.Data[i*c:][:c]
			b0, b1, b2, b3 := b0[:len(drow)], b1[:len(drow)], b2[:len(drow)], b3[:len(drow)]
			for j := range drow {
				d := drow[j]
				d += float32(v0 * b0[j])
				d += float32(v1 * b1[j])
				d += float32(v2 * b2[j])
				d += float32(v3 * b3[j])
				drow[j] = d
			}
		}
	}
	for ; m < a.Rows; m++ {
		arow := a.Data[m*r:][:r]
		brow := b.Data[m*c:][:c]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Data[i*c:][:c]
			brow := brow[:len(drow)]
			for j := range drow {
				drow[j] += float32(av * brow[j])
			}
		}
	}
}

// MatMulBT computes dst = a @ bᵀ where a is m×c, b is r×c, dst is m×r.
// Used in backward passes for input gradients (dx = dy @ Wᵀ).
//
// The kernel takes four rows of a against one row of b at a time, running
// four independent dot products instead of one serial chain, and a scalar
// loop handles the row remainder. Each output is still a single float32 sum
// over increasing k of products rounded to float32, so results are
// bit-identical to the plain one-dot-product-per-output loop. There is no
// zero skipping.
//
//salient:noalloc
func MatMulBT(dst, a, b *Dense) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulBT inner dims %d vs %d", a.Cols, b.Cols)) //lint:allow panicdiscipline shape contract: the zero-alloc kernels document panics on shape errors
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: matmulBT dst shape") //lint:allow panicdiscipline shape contract: the zero-alloc kernels document panics on shape errors
	}
	c, r := a.Cols, b.Rows
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		a0 := a.Data[i*c:][:c]
		a1 := a.Data[(i+1)*c:][:c]
		a2 := a.Data[(i+2)*c:][:c]
		a3 := a.Data[(i+3)*c:][:c]
		d0 := dst.Data[i*r:][:r]
		d1 := dst.Data[(i+1)*r:][:r]
		d2 := dst.Data[(i+2)*r:][:r]
		d3 := dst.Data[(i+3)*r:][:r]
		for j := range d0 {
			brow := b.Data[j*c:][:len(a0)]
			a1, a2, a3 := a1[:len(brow)], a2[:len(brow)], a3[:len(brow)]
			var s0, s1, s2, s3 float32
			for k, bv := range brow {
				s0 += float32(a0[k] * bv)
				s1 += float32(a1[k] * bv)
				s2 += float32(a2[k] * bv)
				s3 += float32(a3[k] * bv)
			}
			d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
		}
	}
	for ; i < a.Rows; i++ {
		arow := a.Data[i*c:][:c]
		drow := dst.Data[i*r:][:r]
		for j := range drow {
			brow := b.Data[j*c:][:len(arow)]
			var s float32
			for k, bv := range brow {
				s += float32(arow[k] * bv)
			}
			drow[j] = s
		}
	}
}

// Add computes t += o elementwise.
func (t *Dense) Add(o *Dense) {
	t.assertSameShape(o)
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Sub computes t -= o elementwise.
func (t *Dense) Sub(o *Dense) {
	t.assertSameShape(o)
	for i, v := range o.Data {
		t.Data[i] -= v
	}
}

// Scale multiplies all elements by s.
func (t *Dense) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AddRowVec adds vector v (length Cols) to every row.
func (t *Dense) AddRowVec(v []float32) {
	if len(v) != t.Cols {
		panic("tensor: AddRowVec length") //lint:allow panicdiscipline shape contract: the zero-alloc kernels document panics on shape errors
	}
	for i := 0; i < t.Rows; i++ {
		row := t.Row(i)
		for j, b := range v {
			row[j] += b
		}
	}
}

// Gather copies the rows of src indexed by idx into dst (dst.Rows ==
// len(idx)). This is the feature-slicing primitive.
func Gather(dst, src *Dense, idx []int32) {
	if dst.Cols != src.Cols || dst.Rows != len(idx) {
		panic("tensor: gather shape") //lint:allow panicdiscipline shape contract: the zero-alloc kernels document panics on shape errors
	}
	for i, id := range idx {
		copy(dst.Row(i), src.Row(int(id)))
	}
}

// ReLU applies max(0, x) in place and returns a mask usable for backward
// (1 where x>0) if mask is non-nil.
func (t *Dense) ReLU(mask []bool) {
	if mask != nil && len(mask) != len(t.Data) {
		panic("tensor: relu mask length") //lint:allow panicdiscipline shape contract: the zero-alloc kernels document panics on shape errors
	}
	for i, v := range t.Data {
		pos := v > 0
		if !pos {
			t.Data[i] = 0
		}
		if mask != nil {
			mask[i] = pos
		}
	}
}

// LeakyReLU applies x>0 ? x : slope*x in place, recording the mask.
func (t *Dense) LeakyReLU(slope float32, mask []bool) {
	if mask != nil && len(mask) != len(t.Data) {
		panic("tensor: leakyrelu mask length") //lint:allow panicdiscipline shape contract: the zero-alloc kernels document panics on shape errors
	}
	for i, v := range t.Data {
		pos := v > 0
		if !pos {
			t.Data[i] = slope * v
		}
		if mask != nil {
			mask[i] = pos
		}
	}
}

// LogSoftmaxRows applies log-softmax to each row in place, numerically
// stabilized by subtracting the row max.
func (t *Dense) LogSoftmaxRows() {
	for i := 0; i < t.Rows; i++ {
		row := t.Row(i)
		maxV := float32(math.Inf(-1))
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxV))
		}
		logSum := float32(math.Log(sum)) + maxV
		for j := range row {
			row[j] -= logSum
		}
	}
}

// NLLLoss computes the mean negative log-likelihood of log-probability rows
// logp against integer labels, and (if grad non-nil) writes d(loss)/d(logp)
// into grad. Rows with label < 0 are ignored (masked nodes).
func NLLLoss(logp *Dense, labels []int32, grad *Dense) float64 {
	if len(labels) != logp.Rows {
		panic("tensor: nll labels length") //lint:allow panicdiscipline shape contract: the zero-alloc kernels document panics on shape errors
	}
	if grad != nil {
		grad.assertSameShape(logp)
		grad.Zero()
	}
	var loss float64
	n := 0
	for i, lbl := range labels {
		if lbl < 0 {
			continue
		}
		loss -= float64(logp.At(i, int(lbl)))
		n++
	}
	if n == 0 {
		return 0
	}
	if grad != nil {
		inv := float32(-1.0 / float64(n))
		for i, lbl := range labels {
			if lbl < 0 {
				continue
			}
			grad.Set(i, int(lbl), inv)
		}
	}
	return loss / float64(n)
}

// LogSoftmaxBackward computes the input gradient of log-softmax given the
// output logp and upstream gradient dOut: dIn = dOut - softmax * rowsum(dOut).
func LogSoftmaxBackward(dIn, logp, dOut *Dense) {
	dIn.assertSameShape(logp)
	dOut.assertSameShape(logp)
	for i := 0; i < logp.Rows; i++ {
		lrow := logp.Row(i)
		grow := dOut.Row(i)
		drow := dIn.Row(i)
		var sum float32
		for _, g := range grow {
			sum += g
		}
		for j := range drow {
			drow[j] = grow[j] - float32(math.Exp(float64(lrow[j])))*sum
		}
	}
}

// ArgmaxRows writes the index of the max element of each row into out.
func (t *Dense) ArgmaxRows(out []int32) {
	if len(out) != t.Rows {
		panic("tensor: argmax out length") //lint:allow panicdiscipline shape contract: the zero-alloc kernels document panics on shape errors
	}
	for i := 0; i < t.Rows; i++ {
		row := t.Row(i)
		best, bestJ := float32(math.Inf(-1)), 0
		for j, v := range row {
			if v > best {
				best, bestJ = v, j
			}
		}
		out[i] = int32(bestJ)
	}
}

// MaxAbsDiff returns the max elementwise absolute difference between t and o.
func (t *Dense) MaxAbsDiff(o *Dense) float64 {
	t.assertSameShape(o)
	var m float64
	for i := range t.Data {
		d := math.Abs(float64(t.Data[i] - o.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}
