package train

import (
	"math"
	"testing"

	"salient/internal/half"
	"salient/internal/infer"
	"salient/internal/store"
)

// fitParams trains for two epochs under cfg and returns a flat snapshot of
// every parameter value.
func fitParams(t *testing.T, cfg Config) ([]float32, []EpochStats) {
	t.Helper()
	ds := smallDS(t)
	tr, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Fit(2)
	if err != nil {
		t.Fatal(err)
	}
	var out []float32
	for _, p := range tr.Model.Params() {
		out = append(out, p.W.Data...)
	}
	return out, stats
}

// TestFusedTrainingBitIdentical is the tentpole correctness gate: the fused
// gather+aggregate pipeline must train BIT-identically to the staged path
// for both fusable architectures, on one replica and on two. The fused
// kernel widens rows with the exact expressions DecodeFeatures uses and
// accumulates neighbors in the same edge order the first layer would, so
// every forward, loss, and gradient matches to the last bit — not merely
// within a tolerance.
func TestFusedTrainingBitIdentical(t *testing.T) {
	for _, R := range []int{1, 2} {
		for _, arch := range []string{"SAGE", "GIN"} {
			cfg := smallCfg()
			cfg.Arch = arch
			cfg.Replicas = R
			staged, sStats := fitParams(t, cfg)
			cfg.Fused = true
			fused, fStats := fitParams(t, cfg)
			if len(staged) != len(fused) {
				t.Fatalf("%s R=%d: parameter count differs: %d vs %d", arch, R, len(staged), len(fused))
			}
			for i := range staged {
				if staged[i] != fused[i] {
					t.Fatalf("%s R=%d: parameter scalar %d differs after fused training: %v vs %v",
						arch, R, i, staged[i], fused[i])
				}
			}
			for e := range sStats {
				if sStats[e].Loss != fStats[e].Loss || sStats[e].Acc != fStats[e].Acc {
					t.Fatalf("%s R=%d epoch %d: staged loss/acc %.9f/%.6f, fused %.9f/%.6f",
						arch, R, e, sStats[e].Loss, sStats[e].Acc, fStats[e].Loss, fStats[e].Acc)
				}
			}
		}
	}
}

// predictVal runs sampled inference over the validation split with the
// trainer's batch size, workers, store and pipeline (staged or fused).
func predictVal(t *testing.T, tr *Trainer, seed uint64) []int32 {
	t.Helper()
	pred, err := infer.Sampled(tr.Model, tr.DS, tr.DS.Val, infer.Options{
		Fanouts:   []int{10, 5},
		BatchSize: tr.Cfg.BatchSize,
		Workers:   tr.Cfg.Workers,
		Seed:      seed,
		Store:     tr.Cfg.Store,
		Fused:     tr.Cfg.Fused,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// TestFusedEvaluateMatchesStaged: a model trained through the fused
// pipeline and evaluated through it predicts exactly what a staged model
// predicts through the staged path.
func TestFusedEvaluateMatchesStaged(t *testing.T) {
	ds := smallDS(t)
	cfg := smallCfg()
	var preds [2][]int32
	for i, fused := range []bool{false, true} {
		cfg.Fused = fused
		tr, err := New(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Fit(1); err != nil {
			t.Fatal(err)
		}
		preds[i] = predictVal(t, tr, 99)
	}
	for i := range preds[0] {
		if preds[0][i] != preds[1][i] {
			t.Fatalf("validation node %d: fused prediction %d, staged %d", ds.Val[i], preds[1][i], preds[0][i])
		}
	}
}

// TestFusedConfigRejections: unfusable architectures and the PyG executor
// fail loudly at wiring time, not deep in an epoch.
func TestFusedConfigRejections(t *testing.T) {
	ds := smallDS(t)
	cfg := smallCfg()
	cfg.Arch = "GAT"
	cfg.Fused = true
	if _, err := New(ds, cfg); err == nil {
		t.Fatal("fused GAT accepted; attention needs per-edge source rows")
	}
	cfg = smallCfg()
	cfg.Fused = true
	cfg.Executor = ExecPyG
	if _, err := New(ds, cfg); err == nil {
		t.Fatal("fused PyG executor accepted")
	}
}

// TestInt8AccuracyDelta pins the quantized path: int8 storage must stay
// within 2 accuracy points of fp16 on the seed dataset after a short fit —
// the measured trade-off the README advertises alongside the 2× byte
// saving.
func TestInt8AccuracyDelta(t *testing.T) {
	ds := smallDS(t)
	run := func(prec half.Precision) float64 {
		cfg := smallCfg()
		cfg.Store = store.NewFlatPrec(ds, prec)
		tr, err := New(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Fit(3); err != nil {
			t.Fatal(err)
		}
		return infer.Accuracy(predictVal(t, tr, 42), ds.Labels, ds.Val)
	}
	fp16 := run(half.FP16)
	int8 := run(half.Int8)
	if delta := math.Abs(fp16 - int8); delta > 0.02 {
		t.Fatalf("int8 validation accuracy %.4f vs fp16 %.4f: |delta| %.4f exceeds 0.02", int8, fp16, delta)
	}
}
