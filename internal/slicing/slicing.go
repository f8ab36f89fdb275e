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
// sliced feature rows as a half.Matrix at the source's storage precision,
// plus the seed labels. Only the active precision's array is sized;
// DecodeFeatures widens whichever one is staged.
//
// In CUDA terms this is page-locked memory that the DMA engine can read
// directly; here it is the unit of reuse in the buffer pool, and the device
// simulation charges DMA-rate transfer for it (versus the slower pageable
// path for non-pinned sources).
type Pinned struct {
	half.Matrix
	Labels []int32 // seed labels
}

// NewPinned allocates a staging buffer for up to maxRows rows of featDim
// features and maxBatch labels. The fp16 array is pre-sized (the common
// case); other precisions grow on first use and are recycled thereafter.
func NewPinned(maxRows, featDim, maxBatch int) *Pinned {
	p := &Pinned{Labels: make([]int32, maxBatch)}
	p.Matrix.Ensure(maxRows, featDim, half.FP16)
	return p
}

// Ensure shapes the staged rows (growing the precision's array only past
// its high-water mark) and the label buffer for a batch. Gather kernels
// (here and in internal/store) call it before writing rows.
//
//salient:noalloc
func (p *Pinned) Ensure(rows, dim, batch int, prec half.Precision) {
	p.Matrix.Ensure(rows, dim, prec)
	if cap(p.Labels) < batch {
		p.Labels = make([]int32, batch)
	}
	p.Labels = p.Labels[:batch]
}

// Bytes returns the payload size of the staged batch in bytes at its staged
// precision, labels included.
func (p *Pinned) Bytes() int64 {
	return p.Matrix.Bytes() + int64(len(p.Labels))*4
}

// Source provides per-node feature rows and labels to the gather kernels.
// It is the seam between the kernels and the FeatureStore layer
// (internal/store): the kernels own the iteration over a batch's node IDs
// and the destination layout, the source decides where each row physically
// lives (one flat matrix, a partition shard, ...).
type Source interface {
	// Dim returns the feature dimensionality.
	Dim() int
	// Precision returns the storage precision of the rows.
	Precision() half.Precision
	// Row returns the matrix holding node id's stored row and the row's
	// index in it. The matrix must stay valid and immutable for the
	// duration of the gather.
	Row(id int32) (*half.Matrix, int)
	// Label returns node id's label.
	Label(id int32) int32
}

// flatSource is the single-matrix layout: node id is row id.
type flatSource struct {
	m      *half.Matrix
	labels []int32
}

func (s flatSource) Dim() int                         { return s.m.Dim }
func (s flatSource) Precision() half.Precision        { return s.m.Prec }
func (s flatSource) Row(id int32) (*half.Matrix, int) { return s.m, int(id) }
func (s flatSource) Label(id int32) int32             { return s.labels[id] }

// NewSource wraps a feature matrix whose row v is node v, and its label
// vector, as a Source.
func NewSource(m *half.Matrix, labels []int32) Source {
	return flatSource{m: m, labels: labels}
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
	dst.Ensure(len(nodeIDs), src.Dim(), batch, src.Precision())
	gatherRows(&dst.Matrix, src, nodeIDs, 0, len(nodeIDs))
	for i := 0; i < batch; i++ {
		dst.Labels[i] = src.Label(nodeIDs[i])
	}
	return nil
}

// gatherRows copies the stored rows of nodeIDs[lo:hi] into rows [lo,hi) of
// dst, which is shaped at src's precision — the shared body of the serial,
// striped and fused kernels. A flat source is one bulk GatherRows with the
// precision dispatched once; any other source resolves each row through
// its Row accessor.
//
//salient:noalloc
func gatherRows(dst *half.Matrix, src Source, nodeIDs []int32, lo, hi int) {
	if s, ok := src.(flatSource); ok {
		dst.GatherRows(lo, s.m, nodeIDs[lo:hi])
		return
	}
	for i := lo; i < hi; i++ {
		m, r := src.Row(nodeIDs[i])
		dst.CopyRow(i, m, r)
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
	dst.Ensure(len(nodeIDs), src.Dim(), batch, src.Precision())
	n := len(nodeIDs)
	stripes := make([]func(), 0, nWorkers)
	for w := 0; w < nWorkers; w++ {
		lo := n * w / nWorkers
		hi := n * (w + 1) / nWorkers
		if lo == hi {
			continue
		}
		stripes = append(stripes, func() {
			gatherRows(&dst.Matrix, src, nodeIDs, lo, hi)
		})
	}
	run(stripes)
	for i := 0; i < batch; i++ {
		dst.Labels[i] = src.Label(nodeIDs[i])
	}
	return nil
}

// SliceHalf is Slice over a flat fp16 feature array, kept as the
// convenient entry point for callers that hold raw feature/label slices.
func SliceHalf(dst *Pinned, feat []half.Float16, featDim int, labels []int32, nodeIDs []int32, batch int) error {
	return Slice(dst, NewSource(half.FromFP16(feat, featDim, len(labels), half.FP16), labels), nodeIDs, batch)
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
	if dst.Rows != p.N || dst.Cols != p.Dim {
		panic(fmt.Sprintf("slicing: decode shape %dx%d vs staged %dx%d", dst.Rows, dst.Cols, p.N, p.Dim)) //lint:allow panicdiscipline shape contract: decode destinations are sized by the same batch geometry
	}
	p.Decode(dst.Data)
}

// DecodeInto widens p into x, recycling x's backing array across batches
// (tensor.Reshape) so steady-state decoding allocates nothing: pass the
// previous batch's tensor back in, nil on first use. This is the one decode
// entry point the pipeline's consumers (training, inference, serving)
// share.
//
//salient:noalloc
func DecodeInto(x *tensor.Dense, p *Pinned) *tensor.Dense {
	x = tensor.Reshape(x, p.N, p.Dim)
	DecodeFeatures(x, p)
	return x
}
