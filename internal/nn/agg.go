package nn

import (
	"salient/internal/mfg"
	"salient/internal/tensor"
)

// aggregateMeanBlock computes dst[v] = mean over sampled in-neighbors of v
// in the block (zero vector when v has no sampled neighbors).
func aggregateMeanBlock(x *tensor.Dense, blk *mfg.Block) *tensor.Dense {
	out := tensor.New(int(blk.NumDst), x.Cols)
	for v := int32(0); v < blk.NumDst; v++ {
		ns := blk.Neighbors(v)
		if len(ns) == 0 {
			continue
		}
		orow := out.Row(int(v))
		for _, u := range ns {
			xrow := x.Row(int(u))
			for j, f := range xrow {
				orow[j] += f
			}
		}
		inv := 1 / float32(len(ns))
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out
}

// aggregateMeanBlockBackward scatters dAgg back to source rows:
// dx[u] += dAgg[v]/deg(v) for each edge u→v. dx must be pre-sized
// (NumSrc × dim) and zeroed or holding an accumulating gradient.
func aggregateMeanBlockBackward(dx, dAgg *tensor.Dense, blk *mfg.Block) {
	for v := int32(0); v < blk.NumDst; v++ {
		ns := blk.Neighbors(v)
		if len(ns) == 0 {
			continue
		}
		grow := dAgg.Row(int(v))
		inv := 1 / float32(len(ns))
		for _, u := range ns {
			drow := dx.Row(int(u))
			for j, g := range grow {
				drow[j] += g * inv
			}
		}
	}
}

// aggregateSumBlock computes dst[v] = sum over sampled in-neighbors of v.
func aggregateSumBlock(x *tensor.Dense, blk *mfg.Block) *tensor.Dense {
	out := tensor.New(int(blk.NumDst), x.Cols)
	for v := int32(0); v < blk.NumDst; v++ {
		orow := out.Row(int(v))
		for _, u := range blk.Neighbors(v) {
			xrow := x.Row(int(u))
			for j, f := range xrow {
				orow[j] += f
			}
		}
	}
	return out
}

// aggregateSumBlockBackward scatters dAgg back: dx[u] += dAgg[v].
func aggregateSumBlockBackward(dx, dAgg *tensor.Dense, blk *mfg.Block) {
	for v := int32(0); v < blk.NumDst; v++ {
		grow := dAgg.Row(int(v))
		for _, u := range blk.Neighbors(v) {
			drow := dx.Row(int(u))
			for j, g := range grow {
				drow[j] += g
			}
		}
	}
}
