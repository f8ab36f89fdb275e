package half

// Matrix is a row-major feature matrix held at one storage precision: the
// one layout behind the stores' host matrices, the pinned staging buffers,
// the fused kernel's staging strip and the transport's row payloads. Exactly
// one of H, F or Q (plus Scales) is live, matching Prec, and holds N×Dim
// scalars; the others keep whatever capacity earlier batches gave them, so a
// recycled buffer that changes precision reuses its old arrays on the way
// back.
//
// Every precision switch over a row layout lives in this file; callers copy,
// encode and widen rows through the methods below and never branch on Prec.
type Matrix struct {
	Prec   Precision
	Dim    int
	N      int
	H      []Float16 // FP16 rows
	F      []float32 // FP32 rows
	Q      []int8    // Int8 rows
	Scales []float32 // Int8 per-row dequant scales
}

// FromFP16 builds an n×dim matrix at prec from fp16 master rows. At FP16 the
// input is aliased (zero-copy; callers must treat it as append-only); other
// precisions re-encode every row through SetFromFP16, so every precision of
// one dataset derives from the same master values.
func FromFP16(feat []Float16, dim, n int, prec Precision) *Matrix {
	if prec == FP16 {
		return &Matrix{Prec: FP16, Dim: dim, N: n, H: feat}
	}
	m := &Matrix{}
	m.Ensure(n, dim, prec)
	scratch := make([]float32, dim)
	for v := 0; v < n; v++ {
		m.SetFromFP16(v, feat[v*dim:(v+1)*dim], scratch)
	}
	return m
}

// Ensure shapes m as n rows of dim at prec. The precision's arrays grow only
// when n·dim passes their high-water mark and are resliced otherwise, so
// contents are not preserved across a grow.
//
//salient:noalloc
func (m *Matrix) Ensure(n, dim int, prec Precision) {
	need := n * dim
	switch prec {
	case FP32:
		if cap(m.F) < need {
			m.F = make([]float32, need)
		}
		m.F = m.F[:need]
	case Int8:
		if cap(m.Q) < need {
			m.Q = make([]int8, need)
		}
		m.Q = m.Q[:need]
		if cap(m.Scales) < n {
			m.Scales = make([]float32, n)
		}
		m.Scales = m.Scales[:n]
	default:
		if cap(m.H) < need {
			m.H = make([]Float16, need)
		}
		m.H = m.H[:need]
	}
	m.Prec, m.Dim, m.N = prec, dim, n
}

// CopyRow copies row srcRow of src into row dst of m. The two matrices share
// precision and dim by construction, so the copy is bitwise.
//
//salient:noalloc
func (m *Matrix) CopyRow(dst int, src *Matrix, srcRow int) {
	d := m.Dim
	switch m.Prec {
	case FP32:
		copy(m.F[dst*d:(dst+1)*d], src.F[srcRow*d:(srcRow+1)*d])
	case Int8:
		copy(m.Q[dst*d:(dst+1)*d], src.Q[srcRow*d:(srcRow+1)*d])
		m.Scales[dst] = src.Scales[srcRow]
	default:
		copy(m.H[dst*d:(dst+1)*d], src.H[srcRow*d:(srcRow+1)*d])
	}
}

// GatherRows copies row rows[i] of src into row at+i of m for every i — the
// bulk form of CopyRow, with the precision dispatched once per call rather
// than once per row.
//
//salient:noalloc
func (m *Matrix) GatherRows(at int, src *Matrix, rows []int32) {
	d := m.Dim
	switch m.Prec {
	case FP32:
		for i, r := range rows {
			copy(m.F[(at+i)*d:(at+i+1)*d], src.F[int(r)*d:(int(r)+1)*d])
		}
	case Int8:
		for i, r := range rows {
			copy(m.Q[(at+i)*d:(at+i+1)*d], src.Q[int(r)*d:(int(r)+1)*d])
			m.Scales[at+i] = src.Scales[r]
		}
	default:
		for i, r := range rows {
			copy(m.H[(at+i)*d:(at+i+1)*d], src.H[int(r)*d:(int(r)+1)*d])
		}
	}
}

// encodeRow stores the float32 row at index v at the matrix's precision.
func (m *Matrix) encodeRow(v int, row []float32) {
	d := m.Dim
	switch m.Prec {
	case FP32:
		copy(m.F[v*d:(v+1)*d], row)
	case Int8:
		m.Scales[v] = QuantizeRow(m.Q[v*d:(v+1)*d], row)
	default:
		EncodeSlice(m.H[v*d:(v+1)*d], row)
	}
}

// SetFromFP16 stores the fp16 master row at index v: copied at FP16,
// otherwise widened exactly into scratch (Dim floats) and re-encoded. This
// is the one encoding every store and peer derives its rows from, so a row
// laid out locally and the same row served over the wire are bitwise equal.
func (m *Matrix) SetFromFP16(v int, row []Float16, scratch []float32) {
	if m.Prec == FP16 {
		copy(m.H[v*m.Dim:(v+1)*m.Dim], row)
		return
	}
	m.encodeRow(v, DecodeSlice(scratch, row))
}

// Append grows the matrix by len(rows)/Dim float32 rows, encoded at its
// precision. Growth copies like append: a matrix aliasing another array
// (FromFP16 at FP16) is detached by the first append, and a copy of m taken
// before the append keeps reading the rows it had.
func (m *Matrix) Append(rows []float32) {
	add := len(rows) / m.Dim
	switch m.Prec {
	case FP32:
		m.F = append(m.F, make([]float32, len(rows))...)
	case Int8:
		m.Q = append(m.Q, make([]int8, len(rows))...)
		m.Scales = append(m.Scales, make([]float32, add)...)
	default:
		m.H = append(m.H, make([]Float16, len(rows))...)
	}
	for v := 0; v < add; v++ {
		m.encodeRow(m.N+v, rows[v*m.Dim:(v+1)*m.Dim])
	}
	m.N += add
}

// Decode widens the matrix's N rows into dst, which must hold N·Dim floats:
// fp16 in one DecodeSlice over the block (exact), fp32 by copy, int8 as
// float32(q)·scale through DequantizeRow. These are the expressions the
// fused kernels accumulate, so every decoded value is bit-identical across
// the staged and fused paths.
//
//salient:noalloc
func (m *Matrix) Decode(dst []float32) {
	d := m.Dim
	switch m.Prec {
	case FP32:
		copy(dst, m.F[:m.N*d])
	case Int8:
		for r := 0; r < m.N; r++ {
			DequantizeRow(dst[r*d:(r+1)*d], m.Q[r*d:(r+1)*d], m.Scales[r])
		}
	default:
		DecodeSlice(dst, m.H[:m.N*d])
	}
}

// Bytes returns the matrix's payload size at its precision (fp16 =
// 2/scalar, fp32 = 4/scalar, int8 = 1/scalar plus the per-row float32
// scale).
func (m *Matrix) Bytes() int64 { return int64(m.N) * m.Prec.RowBytes(m.Dim) }
