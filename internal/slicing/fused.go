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
// aggregateMeanBlock/aggregateSumBlock walk — and widens rows through the
// same half.Matrix.Decode that DecodeFeatures runs (fp16→f32 widening is
// exact; int8 rows dequantize as float32(q)·scale). Fused output is
// therefore bit-identical to the staged Decode→aggregate oracle.
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
	// stage is the storage-width staging strip for the widen phase:
	// scattered stored rows are first gathered here, then the whole hot strip
	// converts to float32 in one Decode. Splitting the scattered loads from
	// the per-scalar conversion lets the copy loop keep many cache misses in
	// flight, where converting at the scattered rows would serialize on one
	// miss per row. Kernel-internal and recycled.
	stage half.Matrix
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
// staging strip at src's precision, recycling both across batches. The
// direct flat-float32 kernel never touches either, so that store carries no
// working-set footprint at all.
//
//salient:noalloc
func (f *Fused) ensureScratch(src Source, nSrc int) {
	f.scratch = tensor.Reshape(f.scratch, nSrc, f.Dim)
	f.stage.Ensure(nSrc, f.Dim, src.Precision())
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
	if s, ok := src.(flatSource); ok && s.m.Prec == half.FP32 {
		fuseDirect(dst, s.m.F, nodeIDs, blk, op)
	} else {
		dst.ensureScratch(src, len(nodeIDs))
		widen(dst, src, nodeIDs)
		fuseRange(dst, blk, op)
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

// fuseDirect computes every destination's aggregate and x_target row
// straight from the flat float32 master array feat — no scratch working
// set, no per-row interface calls, and the only writes are the NumDst×dim
// output tensors. Only the flat float32 layout runs it: its rows need no
// per-scalar conversion, so re-reading a row per edge costs nothing extra,
// while for fp16/int8 a sampled batch's heavy source deduplication (each
// unique row feeds many edges) would multiply the widening work by the
// average in-degree. Neighbors accumulate in Block edge order from the
// identical float32 values the staged path decodes, so the result is
// bit-identical to the staged oracle and to the scratch-based generic path.
//
//salient:noalloc
func fuseDirect(dst *Fused, feat []float32, nodeIDs []int32, blk *mfg.Block, op AggOp) {
	aggD, xtD := dst.Agg.Data, dst.XT.Data
	dim := dst.Dim
	for v := 0; v < dst.NumDst; v++ {
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
}

// widen decodes the stored rows of nodeIDs into the float32 working set:
// each stored row is gathered once into the staging strip, then the strip
// widens in one Decode — the expressions DecodeFeatures uses, so the
// working-set values are bit-identical to the staged path's decoded tensor.
//
//salient:noalloc
func widen(dst *Fused, src Source, nodeIDs []int32) {
	gatherRows(&dst.stage, src, nodeIDs, 0, len(nodeIDs))
	dst.stage.Decode(dst.scratch.Data)
}

// fuseRange computes every destination's aggregate and x_target row from
// the widened working set. Pure float32 adds over cache-hot rows;
// destination nodes are a source prefix, so row v of the working set is
// destination v's self row.
//
//salient:noalloc
func fuseRange(dst *Fused, blk *mfg.Block, op AggOp) {
	// Hoist the backing arrays into locals: slice headers reached through the
	// Dense pointers would otherwise reload on every iteration (the compiler
	// cannot prove Neighbors leaves them unchanged).
	dim, nDst := dst.Dim, dst.NumDst
	aggD, xtD, xD := dst.Agg.Data, dst.XT.Data, dst.scratch.Data
	// Destination self rows are the working set's prefix, so the whole
	// x_target block is one contiguous copy instead of a copy per row.
	copy(xtD, xD[:nDst*dim])
	for v := 0; v < nDst; v++ {
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
