// Fused gather+aggregate kernels: the raw-speed pass on the per-batch data
// path (paper §3 baseline optimization iii, §4.2). The staged path touches a
// batch's stored feature bytes three times — Slice copies storage-width rows
// into Pinned, DecodeFeatures widens them to float32, and the first GNN
// layer's aggregation makes a third pass. For mean/sum first layers the
// staged half/int8 tensor is never needed: GatherAggregate folds stored
// rows into the NumDst×dim aggregate plus the x_target prefix the root/self
// term needs. Flat float32 rows need no per-scalar conversion, so that
// layout aggregates straight out of the master array; fp16/int8 rows widen
// exactly once per unique source into a recycled float32 working set (a
// sampled batch's sources are heavily deduplicated — each unique row feeds
// many edges, so converting per edge would multiply the widening work by
// the average in-degree) and destinations aggregate from it. Either way the
// Pinned staging copy disappears, and only the two NumDst×dim float32
// tensors leave the kernel — far smaller than the staged NumSrc×dim buffer.
//
// Bit-exactness contract: for each destination the fused kernel accumulates
// neighbors in Block edge order — the identical order nn's
// aggregateMeanBlock/aggregateSumBlock walk — and widens rows with the exact
// expressions DecodeFeatures uses (fp16→f32 widening is exact; int8 rows
// dequantize as float32(q)·scale). Fused output is therefore bit-identical
// to the staged Decode→aggregate oracle, serial or striped (striping splits
// the destination range, never a destination's neighbor list).
package slicing

import (
	"fmt"

	"salient/internal/half"
	"salient/internal/mfg"
	"salient/internal/tensor"
)

// AggOp selects the first-layer aggregation a fused gather performs. The
// zero value AggNone means "not fused" so option structs default to the
// staged path.
type AggOp int

const (
	AggNone AggOp = iota
	AggMean       // GraphSAGE: mean over sampled in-neighbors
	AggSum        // GIN: sum over sampled in-neighbors
)

// String returns the op name.
func (op AggOp) String() string {
	switch op {
	case AggMean:
		return "mean"
	case AggSum:
		return "sum"
	default:
		return "none"
	}
}

// Fused is the staging target of a fused gather+aggregate: everything the
// first mean/sum GNN layer needs from the raw features, with the
// NumSrc×dim staged tensor skipped entirely.
//
// Agg holds the per-destination float32 aggregate over Block edge order; XT
// holds the widened x_target prefix (destination nodes are a prefix of
// source nodes, so rows [0,NumDst) are the self/root inputs). All buffers
// recycle their backing arrays across batches (tensor.Reshape). Only Agg,
// XT, and Labels are batch payload; for fanout f the staged path ships
// NumSrc ≈ NumDst×(f+1) storage-width rows, so fused batches also shrink
// the host-to-device transfer.
type Fused struct {
	Op     AggOp
	Agg    *tensor.Dense // NumDst × Dim aggregated neighbor features
	XT     *tensor.Dense // NumDst × Dim widened x_target rows
	Labels []int32       // seed labels
	NumDst int
	Dim    int
	// scratch is the NumSrc×dim widened working set: each stored row decodes
	// into it exactly once, then destinations aggregate from its cache-hot
	// float32 rows. Kernel-internal; never transferred. The direct float32
	// path leaves it nil.
	scratch *tensor.Dense
	// stageH/stageQ are storage-width staging strips for the widen phase:
	// scattered master rows are first copied here, then the whole hot strip
	// converts to float32 in one bulk pass. Splitting the scattered loads
	// from the branchy per-scalar conversion lets the copy loop keep many
	// cache misses in flight, where converting at the scattered rows would
	// serialize on one miss per row. Kernel-internal, recycled, and only the
	// strip matching the store's precision is ever grown.
	stageH []half.Float16
	stageQ []int8
}

// Ensure shapes the staging tensors and label buffer for a batch, recycling
// backing arrays grown on earlier batches.
//
//salient:noalloc
func (f *Fused) Ensure(nDst, dim, batch int) {
	f.Agg = tensor.Reshape(f.Agg, nDst, dim)
	f.XT = tensor.Reshape(f.XT, nDst, dim)
	if cap(f.Labels) < batch {
		f.Labels = make([]int32, batch)
	}
	f.Labels = f.Labels[:batch]
	f.NumDst = nDst
	f.Dim = dim
}

// ensureScratch shapes the generic path's widened working set and the
// precision-matched staging strip, recycling both across batches. Growth
// happens here — before any striping — so concurrent widen stripes only ever
// write disjoint ranges of fixed-size buffers. The direct flat-source kernels
// never touch either, so those stores carry no working-set footprint at all.
//
//salient:noalloc
func (f *Fused) ensureScratch(src Source, nSrc int) {
	f.scratch = tensor.Reshape(f.scratch, nSrc, f.Dim)
	switch src.(type) {
	case flatSource:
		if cap(f.stageH) < nSrc*f.Dim {
			f.stageH = make([]half.Float16, nSrc*f.Dim)
		}
		f.stageH = f.stageH[:nSrc*f.Dim]
	case int8Source:
		if cap(f.stageQ) < nSrc*f.Dim {
			f.stageQ = make([]int8, nSrc*f.Dim)
		}
		f.stageQ = f.stageQ[:nSrc*f.Dim]
	}
}

// Bytes returns the host-to-device payload of the fused staging: the two
// float32 NumDst×dim tensors plus labels.
func (f *Fused) Bytes() int64 {
	var n int64
	if f.Agg != nil {
		n += int64(len(f.Agg.Data)) * 4
	}
	if f.XT != nil {
		n += int64(len(f.XT.Data)) * 4
	}
	return n + int64(len(f.Labels))*4
}

// GatherAggregate is the fused serial kernel: for the outermost block blk of
// a sampled MFG (whose source-local IDs index nodeIDs), fold each
// destination's mean/sum neighbor aggregate and the x_target prefix directly
// from src's stored rows, plus the seed-prefix labels. Flat float32 runs
// the direct kernel; other layouts widen each unique row once into the
// recycled working set and aggregate from it. No pinned staging copy either
// way.
//
//salient:noalloc
func GatherAggregate(dst *Fused, src Source, nodeIDs []int32, blk *mfg.Block, batch int, op AggOp) error {
	if err := checkFused(src, nodeIDs, blk, batch, op); err != nil {
		return err
	}
	dst.Ensure(int(blk.NumDst), src.Dim(), batch)
	dst.Op = op
	if !fuseDirect(dst, src, nodeIDs, blk, op, 0, int(blk.NumDst)) {
		dst.ensureScratch(src, len(nodeIDs))
		widenRange(dst, src, nodeIDs, 0, len(nodeIDs))
		fuseRange(dst, blk, op, 0, int(blk.NumDst))
	}
	for i := 0; i < batch; i++ {
		dst.Labels[i] = src.Label(nodeIDs[i])
	}
	return nil
}

// checkFused validates the fused-gather arguments: the block must be the
// MFG's outermost (its sources index nodeIDs), and op must aggregate.
func checkFused(src Source, nodeIDs []int32, blk *mfg.Block, batch int, op AggOp) error {
	if op != AggMean && op != AggSum {
		return fmt.Errorf("slicing: fused gather needs AggMean or AggSum, got %v", op)
	}
	if batch > len(nodeIDs) {
		return fmt.Errorf("slicing: batch %d > nodes %d", batch, len(nodeIDs))
	}
	if int(blk.NumSrc) != len(nodeIDs) {
		return fmt.Errorf("slicing: fused gather block has %d sources, %d node IDs (not the outermost block?)", blk.NumSrc, len(nodeIDs))
	}
	if batch > int(blk.NumDst) {
		return fmt.Errorf("slicing: batch %d > block destinations %d", batch, blk.NumDst)
	}
	return nil
}

// widenRange decodes stored rows [lo,hi) of nodeIDs into the float32
// working set — each stored row is read exactly once, through one accessor
// call per row with the precision dispatch hoisted out of the loop. The
// widening expressions are the ones DecodeFeatures uses (exact fp16→f32
// widening; int8 as float32(q)·scale via DequantizeRow), so the working-set
// values are bit-identical to the staged path's decoded tensor.
//
// directLayout reports whether src is a layout the fused kernel aggregates
// straight out of, with no widened working set: only the flat float32
// layout qualifies. Its rows need no per-scalar conversion, so re-reading a
// row per edge costs nothing extra; for fp16/int8 a sampled batch's heavy
// source deduplication (each unique row feeds many edges) would multiply
// the widening work by the average in-degree, so those layouts widen each
// unique row once into scratch instead.
func directLayout(src Source) bool {
	_, ok := src.(flat32Source)
	return ok
}

// fuseDirect computes aggregate and x_target rows for destinations [lo,hi)
// straight from the flat float32 master array — no scratch working set, no
// per-row interface calls, and the only writes are the NumDst×dim output
// tensors. Neighbors accumulate in Block edge order from the identical
// float32 values the staged path decodes, so the result is bit-identical to
// the staged oracle and to the scratch-based generic path. Returns false
// (having written nothing) when src is not the flat float32 layout.
//
//salient:noalloc
func fuseDirect(dst *Fused, src Source, nodeIDs []int32, blk *mfg.Block, op AggOp, lo, hi int) bool {
	s, ok := src.(flat32Source)
	if !ok {
		return false
	}
	aggD, xtD := dst.Agg.Data, dst.XT.Data
	feat, dim := s.feat, s.dim
	for v := lo; v < hi; v++ {
		r := int(nodeIDs[v]) * dim
		copy(xtD[v*dim:(v+1)*dim], feat[r:r+dim])
		orow := aggD[v*dim : (v+1)*dim]
		ns := blk.Neighbors(int32(v))
		n := len(ns)
		if n == 0 {
			for j := range orow {
				orow[j] = 0
			}
			continue
		}
		// The first neighbor initializes the row as 0+f — the oracle's
		// zero-then-accumulate bit for bit (including f == -0, where a plain
		// copy would write -0 instead of +0) with one less pass over the
		// aggregate.
		r = int(nodeIDs[ns[0]]) * dim
		xrow := feat[r : r+dim]
		for j, f := range xrow {
			orow[j] = 0 + f
		}
		rest := ns[1:]
		if op == AggMean && n > 1 {
			rest = ns[1 : n-1]
		}
		for _, u := range rest {
			r := int(nodeIDs[u]) * dim
			xrow := feat[r : r+dim]
			for j, f := range xrow {
				orow[j] += f
			}
		}
		if op == AggMean && n > 1 {
			// Fold the mean normalization into the last neighbor: the adds
			// and the multiply happen in the oracle's order — (sum+f)·inv is
			// sum-then-scale with the final pass over the row elided. n == 1
			// needs no pass at all: inv is exactly 1.
			inv := 1 / float32(n)
			r = int(nodeIDs[ns[n-1]]) * dim
			xrow = feat[r : r+dim]
			for j, f := range xrow {
				orow[j] = (orow[j] + f) * inv
			}
		}
	}
	return true
}

//salient:noalloc
func widenRange(dst *Fused, src Source, nodeIDs []int32, lo, hi int) {
	x := dst.scratch
	// Devirtualize this package's own flat layouts: bulk row copies into the
	// staging strip, then one bulk conversion over the hot bytes — instead of
	// an interface dispatch per row. Any other Source takes the generic
	// accessor path below.
	switch s := src.(type) {
	case flatSource:
		feat, dim := s.feat, s.dim
		stage := dst.stageH
		for i := lo; i < hi; i++ {
			r := int(nodeIDs[i]) * dim
			copy(stage[i*dim:(i+1)*dim], feat[r:r+dim])
		}
		half.DecodeSlice(x.Data[lo*dim:hi*dim], stage[lo*dim:hi*dim])
		return
	case int8Source:
		feat, scales, dim := s.feat, s.scales, s.dim
		stage := dst.stageQ
		for i := lo; i < hi; i++ {
			r := int(nodeIDs[i]) * dim
			copy(stage[i*dim:(i+1)*dim], feat[r:r+dim])
		}
		for i := lo; i < hi; i++ {
			half.DequantizeRow(x.Data[i*dim:(i+1)*dim], stage[i*dim:(i+1)*dim], scales[nodeIDs[i]])
		}
		return
	}
	switch src.Precision() {
	case half.FP32:
		for i := lo; i < hi; i++ {
			copy(x.Row(i), src.Row32(nodeIDs[i]))
		}
	case half.Int8:
		for i := lo; i < hi; i++ {
			q, scale := src.Row8(nodeIDs[i])
			half.DequantizeRow(x.Row(i), q, scale)
		}
	default:
		for i := lo; i < hi; i++ {
			xrow := x.Row(i)
			for j, h := range src.Row(nodeIDs[i]) {
				xrow[j] = h.Float32()
			}
		}
	}
}

// fuseRange computes aggregate and x_target rows for destinations [lo,hi)
// from the widened working set — the shared body of the serial and striped
// fused kernels. Pure float32 adds over cache-hot rows; destination nodes
// are a source prefix, so row v of the working set is destination v's self
// row.
//
//salient:noalloc
func fuseRange(dst *Fused, blk *mfg.Block, op AggOp, lo, hi int) {
	// Hoist the backing arrays into locals: slice headers reached through the
	// Dense pointers would otherwise reload on every iteration (the compiler
	// cannot prove Neighbors leaves them unchanged).
	dim := dst.Dim
	aggD, xtD, xD := dst.Agg.Data, dst.XT.Data, dst.scratch.Data
	// Destination self rows are the working set's prefix, so the stripe's
	// whole x_target block is one contiguous copy instead of a copy per row.
	copy(xtD[lo*dim:hi*dim], xD[lo*dim:hi*dim])
	for v := lo; v < hi; v++ {
		orow := aggD[v*dim : (v+1)*dim]
		ns := blk.Neighbors(int32(v))
		n := len(ns)
		if n == 0 {
			for j := range orow {
				orow[j] = 0
			}
			continue
		}
		// First neighbor initializes (0+f ≡ the oracle's zero-then-add, -0
		// included); for mean the last neighbor's add carries the 1/deg scale
		// — see fuseDirect for the bit-identity argument.
		xrow := xD[int(ns[0])*dim : (int(ns[0])+1)*dim]
		for j, f := range xrow {
			orow[j] = 0 + f
		}
		rest := ns[1:]
		if op == AggMean && n > 1 {
			rest = ns[1 : n-1]
		}
		for _, u := range rest {
			xrow := xD[int(u)*dim : (int(u)+1)*dim]
			for j, f := range xrow {
				orow[j] += f
			}
		}
		if op == AggMean && n > 1 {
			inv := 1 / float32(n)
			u := int(ns[n-1])
			xrow := xD[u*dim : (u+1)*dim]
			for j, f := range xrow {
				orow[j] = (orow[j] + f) * inv
			}
		}
	}
}
