package store

import (
	"math"
	"testing"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/half"
	"salient/internal/mfg"
	"salient/internal/partition"
	"salient/internal/rng"
	"salient/internal/sampler"
	"salient/internal/slicing"
	"salient/internal/tensor"
)

// sampleMFGs draws full deterministic MFGs (blocks included) so fused-gather
// tests run over realistic outermost blocks.
func sampleMFGs(t testing.TB, ds *dataset.Dataset, batches, batchSize int) []*mfg.MFG {
	t.Helper()
	sm := sampler.New(ds.G, []int{10, 5}, sampler.FastConfig())
	out := make([]*mfg.MFG, 0, batches)
	for b := 0; b < batches; b++ {
		lo := (b * batchSize) % len(ds.Train)
		hi := lo + batchSize
		if hi > len(ds.Train) {
			hi = len(ds.Train)
		}
		m := sm.Sample(rng.New(uint64(b)*0x9e3779b97f4a7c15+7), ds.Train[lo:hi]).Clone()
		out = append(out, m)
	}
	return out
}

// precStores builds every store composition at the given precision.
func precStores(t testing.TB, ds *dataset.Dataset, prec half.Precision) map[string]FeatureStore {
	t.Helper()
	a, err := partition.LDG(ds.G, 4)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(ds, a, prec)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewCached(NewFlatPrec(ds, prec), ds.G, CacheOptions{Rows: int(ds.G.N) / 5, Policy: cache.StaticDegree})
	if err != nil {
		t.Fatal(err)
	}
	cachedSharded, err := NewCached(sharded, ds.G, CacheOptions{Rows: int(ds.G.N) / 5, Policy: cache.StaticDegree})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]FeatureStore{
		"flat":           NewFlatPrec(ds, prec),
		"sharded":        sharded,
		"cached":         cached,
		"sharded+cached": cachedSharded,
	}
}

// TestFusedGatherParityAcrossStores: at every storage precision, every store
// composition's fused gather must produce bit-identical aggregates, x_target
// rows, and labels — layout and caching change accounting, never contents.
func TestFusedGatherParityAcrossStores(t *testing.T) {
	ds := testDS(t)
	mfgs := sampleMFGs(t, ds, 3, 32)
	for _, prec := range []half.Precision{half.FP16, half.FP32, half.Int8} {
		stores := precStores(t, ds, prec)
		for _, m := range mfgs {
			batch := int(m.Batch)
			var want slicing.Fused
			flat := stores["flat"].(FusedGatherer)
			if err := flat.GatherAggregate(&want, m.NodeIDs, &m.Blocks[0], batch, slicing.AggMean); err != nil {
				t.Fatalf("%v flat: %v", prec, err)
			}
			for name, st := range stores {
				if name == "flat" {
					continue
				}
				fg, ok := st.(FusedGatherer)
				if !ok {
					t.Fatalf("%v %s: store does not implement FusedGatherer", prec, name)
				}
				var got slicing.Fused
				if err := fg.GatherAggregate(&got, m.NodeIDs, &m.Blocks[0], batch, slicing.AggMean); err != nil {
					t.Fatalf("%v %s: %v", prec, name, err)
				}
				for i := range want.Agg.Data {
					if got.Agg.Data[i] != want.Agg.Data[i] {
						t.Fatalf("%v %s: fused aggregate scalar %d differs from flat", prec, name, i)
					}
				}
				for i := range want.XT.Data {
					if got.XT.Data[i] != want.XT.Data[i] {
						t.Fatalf("%v %s: x_target scalar %d differs from flat", prec, name, i)
					}
				}
				for i := 0; i < batch; i++ {
					if got.Labels[i] != want.Labels[i] {
						t.Fatalf("%v %s: label %d differs from flat", prec, name, i)
					}
				}
			}
		}
	}
}

// TestPrecisionByteAccounting pins the Stats row width to the storage
// precision: fp32 = 4·dim, fp16 = 2·dim, int8 = dim + 4 bytes per row —
// the satellite fix for the old hard-wired "2 bytes per scalar". The fused
// gather and a sharded layout read the same stored rows, so they charge
// the same bytes as the flat staged gather.
func TestPrecisionByteAccounting(t *testing.T) {
	ds := testDS(t)
	mfgs := sampleMFGs(t, ds, 2, 32)
	rows := int64(0)
	for _, m := range mfgs {
		rows += int64(len(m.NodeIDs))
	}
	a, err := partition.LDG(ds.G, 4)
	if err != nil {
		t.Fatal(err)
	}
	moved := map[half.Precision]int64{}
	for _, prec := range []half.Precision{half.FP16, half.FP32, half.Int8} {
		st := NewFlatPrec(ds, prec)
		buf := slicing.NewPinned(1, ds.FeatDim, 1)
		for _, m := range mfgs {
			if err := st.Gather(buf, m.NodeIDs, int(m.Batch)); err != nil {
				t.Fatal(err)
			}
		}
		got := st.Stats()
		want := rows * prec.RowBytes(ds.FeatDim)
		if got.BytesMoved != want {
			t.Fatalf("%v: BytesMoved = %d, want rows %d × rowBytes %d = %d",
				prec, got.BytesMoved, rows, prec.RowBytes(ds.FeatDim), want)
		}
		if got.RowsMoved != rows {
			t.Fatalf("%v: RowsMoved = %d, want %d", prec, got.RowsMoved, rows)
		}
		moved[prec] = got.BytesMoved

		fused := NewFlatPrec(ds, prec)
		sharded, err := NewSharded(ds, a, prec)
		if err != nil {
			t.Fatal(err)
		}
		var agg slicing.Fused
		for _, m := range mfgs {
			if err := fused.GatherAggregate(&agg, m.NodeIDs, &m.Blocks[0], int(m.Batch), slicing.AggMean); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Gather(buf, m.NodeIDs, int(m.Batch)); err != nil {
				t.Fatal(err)
			}
		}
		for name, st := range map[string]Stats{"fused": fused.Stats(), "sharded": sharded.Stats()} {
			if st.BytesMoved != got.BytesMoved || st.RowsMoved != got.RowsMoved {
				t.Fatalf("%v: %s gather moved %d bytes / %d rows, flat staged %d / %d",
					prec, name, st.BytesMoved, st.RowsMoved, got.BytesMoved, got.RowsMoved)
			}
		}
	}
	// int8 row = dim+4 bytes, so 2×int8 = fp16 + 8 bytes per row exactly.
	if moved[half.Int8]*2 > moved[half.FP16]+rows*8 {
		t.Fatalf("int8 moved %d bytes, fp16 %d: int8 should halve fp16 (mod per-row scale)",
			moved[half.Int8], moved[half.FP16])
	}
	if moved[half.FP16]*2 != moved[half.FP32] {
		t.Fatalf("fp16 moved %d bytes, fp32 %d: fp32 should be exactly double", moved[half.FP16], moved[half.FP32])
	}
}

// TestCachedOverWrapperBillsInnerPrecision: a Cached over a store that only
// embeds FeatureStore (as instrumenting test fakes do) bills each moved row
// at the wrapped store's precision, here int8, not at an fp16 guess.
func TestCachedOverWrapperBillsInnerPrecision(t *testing.T) {
	ds := testDS(t)
	wrapped := struct{ FeatureStore }{NewFlatPrec(ds, half.Int8)}
	c, err := NewCached(wrapped, ds.G, CacheOptions{Rows: 1, Policy: cache.StaticDegree})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sampleMFGs(t, ds, 2, 32) {
		if err := c.Gather(slicing.NewPinned(1, ds.FeatDim, 1), m.NodeIDs, int(m.Batch)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if want := st.RowsMoved * half.Int8.RowBytes(ds.FeatDim); st.RowsMoved == 0 || st.BytesMoved != want {
		t.Fatalf("moved %d rows for %d bytes, want %d int8 bytes", st.RowsMoved, st.BytesMoved, want)
	}
}

// TestPrecisionStagedDecode: the fp32 store decodes bit-identically to the
// widened fp16 store (both derive from the same fp16 master rows), and the
// int8 store reconstructs every scalar within half a quantization step.
func TestPrecisionStagedDecode(t *testing.T) {
	ds := testDS(t)
	m := sampleMFGs(t, ds, 1, 32)[0]
	batch := int(m.Batch)
	decode := func(prec half.Precision) (*tensor.Dense, *slicing.Pinned) {
		st := NewFlatPrec(ds, prec)
		buf := slicing.NewPinned(1, ds.FeatDim, 1)
		if err := st.Gather(buf, m.NodeIDs, batch); err != nil {
			t.Fatal(err)
		}
		x := tensor.New(buf.N, buf.Dim)
		slicing.DecodeFeatures(x, buf)
		return x, buf
	}
	x16, _ := decode(half.FP16)
	x32, _ := decode(half.FP32)
	x8, buf8 := decode(half.Int8)
	for i := range x16.Data {
		if x32.Data[i] != x16.Data[i] {
			t.Fatalf("fp32 decode scalar %d = %v, fp16 widened %v (should be bit-identical)",
				i, x32.Data[i], x16.Data[i])
		}
	}
	dim := ds.FeatDim
	for r := 0; r < buf8.N; r++ {
		scale := float64(buf8.Scales[r])
		for j := 0; j < dim; j++ {
			err := math.Abs(float64(x8.Data[r*dim+j]) - float64(x16.Data[r*dim+j]))
			if err > scale*0.5001 {
				t.Fatalf("int8 row %d col %d error %g exceeds scale/2 = %g", r, j, err, scale/2)
			}
		}
	}
}

// TestAppendRowsInt8 checks dynamic growth re-encodes appended rows at the
// store's precision and leaves them gatherable.
func TestAppendRowsInt8(t *testing.T) {
	ds := testDS(t)
	st := NewFlatPrec(ds, half.Int8)
	n0 := st.NumNodes()
	dim := st.Dim()
	feat := make([]float32, 2*dim)
	for i := range feat {
		feat[i] = float32(i%7) - 3
	}
	first, err := st.AppendRows(feat, []int32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if int(first) != n0 || st.NumNodes() != n0+2 {
		t.Fatalf("append placed rows at %d, n=%d; want %d, %d", first, st.NumNodes(), n0, n0+2)
	}
	buf := slicing.NewPinned(2, dim, 2)
	if err := st.Gather(buf, []int32{first, first + 1}, 2); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, dim)
	slicing.DecodeFeatures(x, buf)
	for i := range feat {
		scale := float64(buf.Scales[i/dim])
		if err := math.Abs(float64(x.Data[i]) - float64(feat[i])); err > scale*0.5001 {
			t.Fatalf("appended scalar %d reconstructed with error %g (scale %g)", i, err, scale)
		}
	}
	if buf.Labels[0] != 1 || buf.Labels[1] != 2 {
		t.Fatalf("appended labels staged as %v", buf.Labels[:2])
	}
}
