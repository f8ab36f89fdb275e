package slicing

import (
	"testing"

	"salient/internal/half"
	"salient/internal/mfg"
	"salient/internal/race"
	"salient/internal/rng"
	"salient/internal/tensor"
)

// makeBlock samples a random outermost block over n source nodes with nDst
// destinations and up to fanout in-neighbors each. Destination deg%5==0 rows
// get zero neighbors so the degree-0 path is always exercised.
func makeBlock(t testing.TB, seed uint64, nDst, nSrc, fanout int) *mfg.Block {
	t.Helper()
	r := rng.New(seed)
	blk := &mfg.Block{
		DstPtr: make([]int32, nDst+1),
		NumDst: int32(nDst),
		NumSrc: int32(nSrc),
	}
	for v := 0; v < nDst; v++ {
		deg := r.Intn(fanout + 1)
		if v%5 == 0 {
			deg = 0 // isolated destination: aggregate must stay zero
		}
		for e := 0; e < deg; e++ {
			blk.Src = append(blk.Src, int32(r.Intn(nSrc)))
		}
		blk.DstPtr[v+1] = int32(len(blk.Src))
	}
	return blk
}

// sources builds one Source per storage precision over the same fp16 master
// rows, derived exactly as the stores derive their fp32/int8 layouts.
func sources(t testing.TB, n, dim int) map[half.Precision]Source {
	t.Helper()
	feat, labels := makeFeatures(t, n, dim)
	srcs := make(map[half.Precision]Source)
	for _, prec := range []half.Precision{half.FP16, half.FP32, half.Int8} {
		srcs[prec] = NewSource(half.FromFP16(feat, dim, n, prec), labels)
	}
	return srcs
}

// stagedOracle runs the three-pass reference path: Slice the storage rows
// into a Pinned, DecodeFeatures to float32, then aggregate in block edge
// order exactly as nn's aggregateMeanBlock/aggregateSumBlock do.
func stagedOracle(t testing.TB, src Source, nodeIDs []int32, blk *mfg.Block, batch int, op AggOp) (agg, xt *tensor.Dense, labels []int32) {
	t.Helper()
	p := NewPinned(1, src.Dim(), 1)
	if err := Slice(p, src, nodeIDs, batch); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(p.N, p.Dim)
	DecodeFeatures(x, p)
	dim := src.Dim()
	agg = tensor.New(int(blk.NumDst), dim)
	for v := int32(0); v < blk.NumDst; v++ {
		orow := agg.Row(int(v))
		ns := blk.Neighbors(v)
		for _, u := range ns {
			xrow := x.Row(int(u))
			for j, f := range xrow {
				orow[j] += f
			}
		}
		if op == AggMean && len(ns) > 0 {
			inv := 1 / float32(len(ns))
			for j := range orow {
				orow[j] *= inv
			}
		}
	}
	xt = tensor.New(int(blk.NumDst), dim)
	copy(xt.Data, x.Data[:int(blk.NumDst)*dim])
	return agg, xt, p.Labels[:batch]
}

// TestGatherAggregateMatchesStaged is the bit-exactness oracle: for every
// storage precision and both aggregation ops, the fused one-pass kernel must
// produce bit-identical aggregates, x_target rows, and labels to the staged
// Slice→DecodeFeatures→aggregate path.
func TestGatherAggregateMatchesStaged(t *testing.T) {
	const n, dim, nDst, batch = 400, 12, 60, 40
	srcs := sources(t, n, dim)
	r := rng.New(17)
	nodeIDs := make([]int32, 180)
	for i := range nodeIDs {
		nodeIDs[i] = int32(r.Intn(n))
	}
	blk := makeBlock(t, 23, nDst, len(nodeIDs), 7)
	for _, prec := range []half.Precision{half.FP16, half.FP32, half.Int8} {
		for _, op := range []AggOp{AggMean, AggSum} {
			src := srcs[prec]
			wantAgg, wantXT, wantLabels := stagedOracle(t, src, nodeIDs, blk, batch, op)
			var f Fused
			if err := GatherAggregate(&f, src, nodeIDs, blk, batch, op); err != nil {
				t.Fatalf("%v/%v: %v", prec, op, err)
			}
			if f.NumDst != nDst || f.Dim != dim || f.Op != op {
				t.Fatalf("%v/%v: fused shape %dx%d op %v", prec, op, f.NumDst, f.Dim, f.Op)
			}
			for i, want := range wantAgg.Data {
				if f.Agg.Data[i] != want {
					t.Fatalf("%v/%v: agg scalar %d = %v, staged oracle %v (not bit-identical)",
						prec, op, i, f.Agg.Data[i], want)
				}
			}
			for i, want := range wantXT.Data {
				if f.XT.Data[i] != want {
					t.Fatalf("%v/%v: x_target scalar %d = %v, oracle %v", prec, op, i, f.XT.Data[i], want)
				}
			}
			for i, want := range wantLabels {
				if f.Labels[i] != want {
					t.Fatalf("%v/%v: label %d = %d, oracle %d", prec, op, i, f.Labels[i], want)
				}
			}
		}
	}
}

// TestGatherAggregateDegreeZeroAndEmpty: isolated destinations aggregate to
// exact zeros (mean included — no 0/0 NaN), and a block with zero edges is
// legal.
func TestGatherAggregateDegreeZero(t *testing.T) {
	const n, dim = 20, 4
	srcs := sources(t, n, dim)
	nodeIDs := []int32{3, 7, 11, 2}
	blk := &mfg.Block{ // every destination isolated
		DstPtr: []int32{0, 0, 0},
		NumDst: 2,
		NumSrc: int32(len(nodeIDs)),
	}
	for prec, src := range srcs {
		var f Fused
		if err := GatherAggregate(&f, src, nodeIDs, blk, 2, AggMean); err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		for i, v := range f.Agg.Data {
			if v != 0 {
				t.Fatalf("%v: degree-0 aggregate scalar %d = %v, want exact 0", prec, i, v)
			}
		}
	}
}

func TestGatherAggregateErrors(t *testing.T) {
	const n, dim = 20, 4
	src := sources(t, n, dim)[half.FP16]
	nodeIDs := []int32{1, 2, 3, 4}
	blk := makeBlock(t, 1, 2, len(nodeIDs), 2)
	var f Fused
	if err := GatherAggregate(&f, src, nodeIDs, blk, 2, AggNone); err == nil {
		t.Fatal("AggNone accepted")
	}
	if err := GatherAggregate(&f, src, nodeIDs, blk, 9, AggMean); err == nil {
		t.Fatal("batch > nodes accepted")
	}
	inner := makeBlock(t, 2, 2, 3, 2) // NumSrc != len(nodeIDs): not outermost
	if err := GatherAggregate(&f, src, nodeIDs, inner, 2, AggMean); err == nil {
		t.Fatal("non-outermost block accepted")
	}
	if err := GatherAggregate(&f, src, nodeIDs, blk, 3, AggSum); err == nil {
		t.Fatal("batch > NumDst accepted")
	}
}

// TestGatherAggregateNoSteadyStateAllocs pins the fused kernels at zero
// allocations per batch once the staging tensors have grown.
func TestGatherAggregateNoSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under -race")
	}
	const n, dim, nDst, batch = 200, 16, 32, 24
	srcs := sources(t, n, dim)
	r := rng.New(5)
	nodeIDs := make([]int32, 96)
	for i := range nodeIDs {
		nodeIDs[i] = int32(r.Intn(n))
	}
	blk := makeBlock(t, 9, nDst, len(nodeIDs), 6)
	for prec, src := range srcs {
		var f Fused
		if err := GatherAggregate(&f, src, nodeIDs, blk, batch, AggMean); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := GatherAggregate(&f, src, nodeIDs, blk, batch, AggMean); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v: fused gather allocates %v/batch in steady state, want 0", prec, allocs)
		}
	}
}
