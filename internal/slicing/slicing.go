// Package slicing extracts the feature and label sub-tensors for a sampled
// mini-batch and stages them in pinned host buffers ready for transfer.
//
// This is the second half of batch preparation (paper §3.2, §4.2). The
// kernels here embody the baseline's conventional optimizations — row-major
// feature storage for cache-efficient row copies, half-precision host
// features to halve bandwidth — plus SALIENT's changes: a deliberately
// serial slice kernel per worker (better cache locality and no inter-thread
// contention than PyTorch's internally parallel slicing), writing directly
// into reusable pinned staging buffers so the main process never copies.
package slicing

import (
	"fmt"

	"salient/internal/half"
	"salient/internal/tensor"
)

// Pinned is a pinned host staging buffer for one prepared mini-batch: the
// sliced feature rows (at the source's storage precision), the seed labels,
// and bookkeeping for reuse.
//
// Prec selects which staging array holds the rows: Feat for fp16 (the seed
// layout and the zero value), Feat32 for fp32, Feat8 plus the per-row Scales
// for int8. Only the active array is sized; DecodeFeatures widens whichever
// one is staged.
//
// In CUDA terms this is page-locked memory that the DMA engine can read
// directly; here it is the unit of reuse in the buffer pool, and the device
// simulation charges DMA-rate transfer for it (versus the slower pageable
// path for non-pinned sources).
type Pinned struct {
	Feat   []half.Float16 // rows × featDim (Prec == half.FP16)
	Feat32 []float32      // rows × featDim (Prec == half.FP32)
	Feat8  []int8         // rows × featDim (Prec == half.Int8)
	Scales []float32      // per-row dequant scales (Prec == half.Int8)
	Labels []int32        // seed labels
	Rows   int
	Dim    int
	Prec   half.Precision
}

// NewPinned allocates a staging buffer for up to maxRows rows of featDim
// features and maxBatch labels. The fp16 array is pre-sized (the common
// case); other precisions grow on first use and are recycled thereafter.
func NewPinned(maxRows, featDim, maxBatch int) *Pinned {
	return &Pinned{
		Feat:   make([]half.Float16, maxRows*featDim),
		Labels: make([]int32, maxBatch),
		Dim:    featDim,
	}
}

// Ensure grows the fp16 staging buffer if the batch needs more rows than
// ever seen and sets the staged shape — the seed entry point, equivalent to
// EnsurePrec at half.FP16.
//
//salient:noalloc
func (p *Pinned) Ensure(rows, dim, batch int) {
	p.EnsurePrec(rows, dim, batch, half.FP16)
}

// EnsurePrec grows the staging array for the given precision if the batch
// needs more rows than ever seen and sets the staged shape. Gather kernels
// (here and in internal/store) call it before writing rows.
//
//salient:noalloc
func (p *Pinned) EnsurePrec(rows, dim, batch int, prec half.Precision) {
	need := rows * dim
	switch prec {
	case half.FP32:
		if cap(p.Feat32) < need {
			p.Feat32 = make([]float32, need)
		}
		p.Feat32 = p.Feat32[:need]
	case half.Int8:
		if cap(p.Feat8) < need {
			p.Feat8 = make([]int8, need)
		}
		p.Feat8 = p.Feat8[:need]
		if cap(p.Scales) < rows {
			p.Scales = make([]float32, rows)
		}
		p.Scales = p.Scales[:rows]
	default:
		if cap(p.Feat) < need {
			p.Feat = make([]half.Float16, need)
		}
		p.Feat = p.Feat[:need]
	}
	if cap(p.Labels) < batch {
		p.Labels = make([]int32, batch)
	}
	p.Labels = p.Labels[:batch]
	p.Rows = rows
	p.Dim = dim
	p.Prec = prec
}

// Bytes returns the payload size of the staged batch in bytes at its staged
// precision (fp16 = 2/scalar, fp32 = 4/scalar, int8 = 1/scalar plus the
// per-row float32 scale).
func (p *Pinned) Bytes() int64 {
	labels := int64(len(p.Labels)) * 4
	switch p.Prec {
	case half.FP32:
		return int64(len(p.Feat32))*4 + labels
	case half.Int8:
		return int64(len(p.Feat8)) + int64(len(p.Scales))*4 + labels
	default:
		return int64(len(p.Feat))*2 + labels
	}
}

// Source provides per-node feature rows and labels to the gather kernels.
// It is the seam between the kernels and the FeatureStore layer
// (internal/store): the kernels own the iteration over a batch's node IDs
// and the destination layout, the source decides where each row physically
// lives (one flat array, a partition shard, ...) and at which precision.
//
// Precision tags which row accessor is live: the kernels call exactly one of
// Row/Row32/Row8 per source, selected once per gather, so a source only has
// to populate the accessor matching its storage (the others may return nil).
type Source interface {
	// Dim returns the feature dimensionality.
	Dim() int
	// Precision returns the storage precision of the rows.
	Precision() half.Precision
	// Row returns node id's fp16 feature row (length Dim); live when
	// Precision() is half.FP16. The returned slice must stay valid and
	// immutable for the duration of the gather.
	Row(id int32) []half.Float16
	// Row32 returns node id's float32 feature row; live for half.FP32.
	Row32(id int32) []float32
	// Row8 returns node id's quantized row and its dequant scale; live for
	// half.Int8.
	Row8(id int32) ([]int8, float32)
	// Label returns node id's label.
	Label(id int32) int32
}

// flatSource is the single-array fp16 layout: row id lives at
// [id*dim, id*dim+dim).
type flatSource struct {
	feat   []half.Float16
	dim    int
	labels []int32
}

func (s flatSource) Dim() int                  { return s.dim }
func (s flatSource) Precision() half.Precision { return half.FP16 }
func (s flatSource) Row(id int32) []half.Float16 {
	return s.feat[int(id)*s.dim : (int(id)+1)*s.dim]
}
func (s flatSource) Row32(id int32) []float32        { return nil }
func (s flatSource) Row8(id int32) ([]int8, float32) { return nil, 0 }
func (s flatSource) Label(id int32) int32            { return s.labels[id] }

// NewFlatSource wraps a flat row-major half-precision feature matrix and its
// label vector as a Source.
func NewFlatSource(feat []half.Float16, featDim int, labels []int32) Source {
	return flatSource{feat: feat, dim: featDim, labels: labels}
}

// flat32Source is the single-array float32 layout.
type flat32Source struct {
	feat   []float32
	dim    int
	labels []int32
}

func (s flat32Source) Dim() int                    { return s.dim }
func (s flat32Source) Precision() half.Precision   { return half.FP32 }
func (s flat32Source) Row(id int32) []half.Float16 { return nil }
func (s flat32Source) Row32(id int32) []float32 {
	return s.feat[int(id)*s.dim : (int(id)+1)*s.dim]
}
func (s flat32Source) Row8(id int32) ([]int8, float32) { return nil, 0 }
func (s flat32Source) Label(id int32) int32            { return s.labels[id] }

// NewFloat32Source wraps a flat row-major float32 feature matrix as a Source.
func NewFloat32Source(feat []float32, featDim int, labels []int32) Source {
	return flat32Source{feat: feat, dim: featDim, labels: labels}
}

// int8Source is the single-array symmetric-int8 layout: quantized rows plus
// one float32 dequant scale per row.
type int8Source struct {
	feat   []int8
	scales []float32
	dim    int
	labels []int32
}

func (s int8Source) Dim() int                    { return s.dim }
func (s int8Source) Precision() half.Precision   { return half.Int8 }
func (s int8Source) Row(id int32) []half.Float16 { return nil }
func (s int8Source) Row32(id int32) []float32    { return nil }
func (s int8Source) Row8(id int32) ([]int8, float32) {
	return s.feat[int(id)*s.dim : (int(id)+1)*s.dim], s.scales[id]
}
func (s int8Source) Label(id int32) int32 { return s.labels[id] }

// NewInt8Source wraps a flat row-major quantized feature matrix and its
// per-row scales as a Source.
func NewInt8Source(feat []int8, scales []float32, featDim int, labels []int32) Source {
	return int8Source{feat: feat, scales: scales, dim: featDim, labels: labels}
}

// Slice gathers the feature rows for nodeIDs out of src into dst — staged at
// the source's storage precision — and the labels for the first batch
// entries of nodeIDs (the seed prefix). This is the SALIENT serial kernel:
// one worker slices one whole batch, contiguously, with no synchronization.
//
//salient:noalloc
func Slice(dst *Pinned, src Source, nodeIDs []int32, batch int) error {
	if batch > len(nodeIDs) {
		return fmt.Errorf("slicing: batch %d > nodes %d", batch, len(nodeIDs))
	}
	dim := src.Dim()
	dst.EnsurePrec(len(nodeIDs), dim, batch, src.Precision())
	sliceRows(dst, src, nodeIDs, 0, len(nodeIDs))
	for i := 0; i < batch; i++ {
		dst.Labels[i] = src.Label(nodeIDs[i])
	}
	return nil
}

// sliceRows copies rows [lo,hi) of nodeIDs into their staging positions at
// dst's precision — the shared body of the serial and striped kernels.
//
//salient:noalloc
func sliceRows(dst *Pinned, src Source, nodeIDs []int32, lo, hi int) {
	dim := dst.Dim
	switch dst.Prec {
	case half.FP32:
		for i := lo; i < hi; i++ {
			copy(dst.Feat32[i*dim:(i+1)*dim], src.Row32(nodeIDs[i]))
		}
	case half.Int8:
		for i := lo; i < hi; i++ {
			q, scale := src.Row8(nodeIDs[i])
			copy(dst.Feat8[i*dim:(i+1)*dim], q)
			dst.Scales[i] = scale
		}
	default:
		for i := lo; i < hi; i++ {
			copy(dst.Feat[i*dim:(i+1)*dim], src.Row(nodeIDs[i]))
		}
	}
}

// SliceStriped is the PyTorch-style parallel slice kernel: the row range is
// split into nWorkers static stripes processed by the provided runner (in
// production PyTorch, OpenMP threads). It exists for the Table 2 comparison;
// SALIENT itself uses Slice per batch-preparation worker.
//
// run is called once with the stripe closures and must execute them
// (possibly concurrently) before returning.
func SliceStriped(dst *Pinned, src Source, nodeIDs []int32, batch, nWorkers int, run func(stripes []func())) error {
	if batch > len(nodeIDs) {
		return fmt.Errorf("slicing: batch %d > nodes %d", batch, len(nodeIDs))
	}
	if nWorkers < 1 {
		nWorkers = 1
	}
	dst.EnsurePrec(len(nodeIDs), src.Dim(), batch, src.Precision())
	n := len(nodeIDs)
	stripes := make([]func(), 0, nWorkers)
	for w := 0; w < nWorkers; w++ {
		lo := n * w / nWorkers
		hi := n * (w + 1) / nWorkers
		if lo == hi {
			continue
		}
		stripes = append(stripes, func() {
			sliceRows(dst, src, nodeIDs, lo, hi)
		})
	}
	run(stripes)
	for i := 0; i < batch; i++ {
		dst.Labels[i] = src.Label(nodeIDs[i])
	}
	return nil
}

// SliceHalf is Slice over the flat single-array layout, kept as the
// convenient entry point for callers that hold raw feature/label slices.
//
//salient:noalloc
func SliceHalf(dst *Pinned, feat []half.Float16, featDim int, labels []int32, nodeIDs []int32, batch int) error {
	return Slice(dst, NewFlatSource(feat, featDim, labels), nodeIDs, batch)
}

// DecodeFeatures converts a staged feature block into the float32 tensor
// used by compute (the GPU-side widening in the paper: transfers stay at
// storage width, kernels run single precision). fp16 rows widen exactly,
// fp32 rows copy, int8 rows dequantize as float32(q)·scale — the same
// expression the fused kernels accumulate, so staged-then-decoded values are
// bit-identical to fused ones.
//
//salient:noalloc
func DecodeFeatures(dst *tensor.Dense, p *Pinned) {
	if dst.Rows != p.Rows || dst.Cols != p.Dim {
		panic(fmt.Sprintf("slicing: decode shape %dx%d vs staged %dx%d", dst.Rows, dst.Cols, p.Rows, p.Dim)) //lint:allow panicdiscipline shape contract: decode destinations are sized by the same batch geometry
	}
	switch p.Prec {
	case half.FP32:
		copy(dst.Data, p.Feat32)
	case half.Int8:
		for r := 0; r < p.Rows; r++ {
			half.DequantizeRow(dst.Data[r*p.Dim:(r+1)*p.Dim], p.Feat8[r*p.Dim:(r+1)*p.Dim], p.Scales[r])
		}
	default:
		half.DecodeSlice(dst.Data, p.Feat)
	}
}

// DecodeInto widens p into x, recycling x's backing array across batches
// (tensor.Reshape) so steady-state decoding allocates nothing: pass the
// previous batch's tensor back in, nil on first use. This is the one decode
// entry point the pipeline's consumers (training, inference, serving)
// share.
//
//salient:noalloc
func DecodeInto(x *tensor.Dense, p *Pinned) *tensor.Dense {
	x = tensor.Reshape(x, p.Rows, p.Dim)
	DecodeFeatures(x, p)
	return x
}

// Pool is a fixed-size recycling pool of pinned staging buffers. SALIENT
// bounds in-flight batches by the number of slots; a worker takes a free
// slot, fills it, hands it to the training loop, and the loop returns it
// after the (simulated) transfer completes.
type Pool struct {
	free chan *Pinned
}

// NewPool creates a pool with n pre-allocated buffers.
func NewPool(n, maxRows, featDim, maxBatch int) *Pool {
	p := &Pool{free: make(chan *Pinned, n)}
	for i := 0; i < n; i++ {
		p.free <- NewPinned(maxRows, featDim, maxBatch)
	}
	return p
}

// Get blocks until a free buffer is available.
func (p *Pool) Get() *Pinned { return <-p.free }

// Put returns a buffer to the pool. Putting more buffers than the pool size
// panics, which catches double-free bugs early.
func (p *Pool) Put(b *Pinned) {
	select {
	case p.free <- b:
	default:
		panic("slicing: pool overflow (double Put?)") //lint:allow panicdiscipline corruption guard: pool overflow means a double Put broke ownership
	}
}
