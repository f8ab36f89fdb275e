package store

import (
	"fmt"
	"sync"

	"salient/internal/dataset"
	"salient/internal/half"
	"salient/internal/mfg"
	"salient/internal/slicing"
)

// Flat is the single-array FeatureStore: rows live in one contiguous
// row-major matrix at the store's storage precision (the seed layout aliases
// dataset.Dataset's FeatHalf at fp16), and every gathered row is charged as
// transferred at that precision's row width.
//
// Flat is the store that grows with a dynamic graph: AppendRows extends the
// matrix (copy-on-grow, never mutating the dataset's arrays) so nodes added
// through graph.Dynamic get feature rows without a rebuild.
type Flat struct {
	dim  int
	prec half.Precision

	// srcMu orders appends against concurrent gathers: a gather reads src
	// under the read lock and copies rows from it after releasing the lock;
	// AppendRows swaps in a source over a grown copy of the matrix under the
	// write lock. Growth never writes a row an earlier source can reach, so
	// readers never observe a partial row.
	srcMu  sync.RWMutex
	src    slicing.Source
	mat    *half.Matrix
	labels []int32

	mu    sync.Mutex
	stats Stats
}

// NewFlat builds the flat store over ds's host feature matrix and labels at
// the seed precision (fp16). The dataset's arrays are aliased until the
// first AppendRows, which copies on grow — the dataset itself is never
// mutated.
func NewFlat(ds *dataset.Dataset) *Flat { return NewFlatPrec(ds, half.FP16) }

// NewFlatPrec builds the flat store at an explicit storage precision. fp16
// aliases the dataset's FeatHalf zero-copy; fp32 and int8 re-encode every
// row once at build time from the same fp16 master values (so all
// precisions of one dataset derive from identical inputs).
func NewFlatPrec(ds *dataset.Dataset, prec half.Precision) *Flat {
	mat := half.FromFP16(ds.FeatHalf, ds.FeatDim, int(ds.G.N), prec)
	return &Flat{
		dim:    ds.FeatDim,
		prec:   prec,
		src:    slicing.NewSource(mat, ds.Labels),
		mat:    mat,
		labels: ds.Labels,
	}
}

// Dim returns the feature dimensionality.
func (f *Flat) Dim() int { return f.dim }

// Precision returns the storage precision rows are held (and moved) at.
func (f *Flat) Precision() half.Precision { return f.prec }

// NumNodes returns the number of feature rows held.
func (f *Flat) NumNodes() int {
	f.srcMu.RLock()
	defer f.srcMu.RUnlock()
	return f.mat.N
}

// AppendRows implements Appendable: it appends len(labels) rows (feat is
// row-major float32, len(labels)×Dim, encoded to the store's storage
// precision like every other row) and returns the first new row ID.
// Concurrent Gathers keep reading the pre-append arrays until the swap
// completes.
func (f *Flat) AppendRows(feat []float32, labels []int32) (int32, error) {
	if len(labels) == 0 {
		return 0, fmt.Errorf("store: AppendRows with no rows")
	}
	if len(feat) != len(labels)*f.dim {
		return 0, fmt.Errorf("store: AppendRows feat length %d, want %d rows × dim %d = %d",
			len(feat), len(labels), f.dim, len(labels)*f.dim)
	}
	f.srcMu.Lock()
	defer f.srcMu.Unlock()
	first := int32(f.mat.N)
	// Append copies on the first grow (dataset arrays have no spare
	// capacity), so the dataset's own FeatHalf/Labels are never written; it
	// grows a copy of the matrix header, so gathers still holding the old
	// source keep reading the old one.
	grown := *f.mat
	grown.Append(feat)
	f.mat = &grown
	f.labels = append(f.labels, labels...)
	f.src = slicing.NewSource(f.mat, f.labels)
	return first, nil
}

// Gather stages the batch with the SALIENT serial kernel.
//
//salient:noalloc
func (f *Flat) Gather(dst *slicing.Pinned, nodeIDs []int32, batch int) error {
	f.srcMu.RLock()
	src, n := f.src, f.mat.N
	f.srcMu.RUnlock()
	if err := checkIDs(nodeIDs, n); err != nil {
		return err
	}
	if err := slicing.Slice(dst, src, nodeIDs, batch); err != nil {
		return err
	}
	f.account(len(nodeIDs))
	return nil
}

// GatherStriped stages the batch with the statically striped parallel
// kernel, for the PyG executor's DataLoader model.
func (f *Flat) GatherStriped(dst *slicing.Pinned, nodeIDs []int32, batch, nWorkers int, run func(stripes []func())) error {
	f.srcMu.RLock()
	src, n := f.src, f.mat.N
	f.srcMu.RUnlock()
	if err := checkIDs(nodeIDs, n); err != nil {
		return err
	}
	if err := slicing.SliceStriped(dst, src, nodeIDs, batch, nWorkers, run); err != nil {
		return err
	}
	f.account(len(nodeIDs))
	return nil
}

// GatherAggregate implements FusedGatherer: one pass over the stored rows,
// widening and accumulating the first layer's mean/sum aggregate directly,
// with no staged tensor. Each row is still read from host memory once, so
// the transfer accounting matches Gather; the savings show up in the batch
// payload (2×NumDst×dim float32 versus NumSrc×dim storage-width scalars).
//
//salient:noalloc
func (f *Flat) GatherAggregate(dst *slicing.Fused, nodeIDs []int32, blk *mfg.Block, batch int, op slicing.AggOp) error {
	f.srcMu.RLock()
	src, n := f.src, f.mat.N
	f.srcMu.RUnlock()
	if err := checkIDs(nodeIDs, n); err != nil {
		return err
	}
	if err := slicing.GatherAggregate(dst, src, nodeIDs, blk, batch, op); err != nil {
		return err
	}
	f.account(len(nodeIDs))
	return nil
}

func (f *Flat) account(rows int) {
	bytes := int64(rows) * f.prec.RowBytes(f.dim)
	f.mu.Lock()
	f.stats.Gathers++
	f.stats.Rows += int64(rows)
	f.stats.RowsMoved += int64(rows)
	f.stats.BytesMoved += bytes
	f.mu.Unlock()
}

// Stats returns the accumulated transfer accounting.
func (f *Flat) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// ResetStats clears the accounting.
func (f *Flat) ResetStats() {
	f.mu.Lock()
	f.stats = Stats{}
	f.mu.Unlock()
}

// checkIDs rejects out-of-range node IDs before any row is touched, turning
// what used to be an index panic deep in the gather into an error the
// executor API can propagate.
func checkIDs(nodeIDs []int32, n int) error {
	for _, id := range nodeIDs {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("store: node %d out of range [0,%d)", id, n)
		}
	}
	return nil
}
