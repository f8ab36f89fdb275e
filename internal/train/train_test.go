package train

import (
	"math"
	"testing"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/half"
	"salient/internal/partition"
	"salient/internal/store"
)

func smallDS(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Load(dataset.Arxiv, 0.05)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return ds
}

func smallCfg() Config {
	return Config{
		Arch:      "SAGE",
		Hidden:    32,
		Layers:    2,
		Fanouts:   []int{10, 5},
		BatchSize: 128,
		LR:        5e-3,
		Workers:   2,
		Seed:      7,
	}
}

func TestTrainerLossDecreasesAccuracyRises(t *testing.T) {
	ds := smallDS(t)
	tr, err := New(ds, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Fit(5)
	if err != nil {
		t.Fatal(err)
	}
	first, last := stats[0], stats[len(stats)-1]
	if !(last.Loss < first.Loss) {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", first.Loss, last.Loss)
	}
	if !(last.Acc > first.Acc) {
		t.Fatalf("accuracy did not rise: %.4f -> %.4f", first.Acc, last.Acc)
	}
	if last.Acc < 0.30 {
		t.Fatalf("final train accuracy %.4f too low for a learnable dataset", last.Acc)
	}
	for _, s := range stats {
		if s.Batches == 0 || s.NodesSeen == 0 || s.EdgesSeen == 0 {
			t.Fatalf("empty epoch stats: %+v", s)
		}
		if math.IsNaN(s.Loss) || math.IsInf(s.Loss, 0) {
			t.Fatalf("non-finite loss at epoch %d: %v", s.Epoch, s.Loss)
		}
	}
}

func TestTrainerDeterministicGivenSeed(t *testing.T) {
	ds := smallDS(t)
	run := func() []EpochStats {
		tr, err := New(ds, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		stats, err := tr.Fit(2)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Loss != b[i].Loss || a[i].Acc != b[i].Acc {
			t.Fatalf("epoch %d not reproducible: (%v,%v) vs (%v,%v)",
				i, a[i].Loss, a[i].Acc, b[i].Loss, b[i].Acc)
		}
	}
}

// TestPyGExecutorTrainsEquivalently: the DataLoader-model executor trains,
// on one replica and on two (each replica striped over its shard).
func TestPyGExecutorTrainsEquivalently(t *testing.T) {
	ds := smallDS(t)
	for _, R := range []int{1, 2} {
		cfg := smallCfg()
		cfg.Executor = ExecPyG
		cfg.Replicas = R
		tr, err := New(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := tr.Fit(3)
		if err != nil {
			t.Fatal(err)
		}
		if !(stats[2].Loss < stats[0].Loss) {
			t.Fatalf("R=%d: PyG-executor training failed to reduce loss: %.4f -> %.4f",
				R, stats[0].Loss, stats[2].Loss)
		}
	}
}

func TestAllArchitecturesTrainOneEpoch(t *testing.T) {
	ds := smallDS(t)
	for _, arch := range []string{"SAGE", "GAT", "GIN", "SAGE-RI"} {
		cfg := smallCfg()
		cfg.Arch = arch
		cfg.BatchSize = 256
		tr, err := New(ds, cfg)
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		s, err := tr.TrainEpoch(0)
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if math.IsNaN(s.Loss) || s.Batches == 0 {
			t.Fatalf("%s: bad epoch stats %+v", arch, s)
		}
	}
}

// TestStoreChoiceDoesNotChangeTraining: the feature store decides layout
// and transfer accounting, never batch contents — so training through a
// sharded or cached store must reproduce the flat run bit-for-bit.
func TestStoreChoiceDoesNotChangeTraining(t *testing.T) {
	ds := smallDS(t)
	run := func(st store.FeatureStore) []EpochStats {
		cfg := smallCfg()
		cfg.Store = st
		tr, err := New(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := tr.Fit(2)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	want := run(nil)

	a, err := partition.LDG(ds.G, 3)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := store.NewSharded(ds, a, half.FP16)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := store.NewCached(store.NewFlat(ds), ds.G, store.CacheOptions{Rows: int(ds.G.N) / 4, Policy: cache.StaticDegree})
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]store.FeatureStore{"sharded": sharded, "cached": cached} {
		got := run(st)
		for e := range want {
			if got[e].Loss != want[e].Loss || got[e].Acc != want[e].Acc {
				t.Fatalf("%s store diverged at epoch %d: (%v,%v) vs flat (%v,%v)",
					name, e, got[e].Loss, got[e].Acc, want[e].Loss, want[e].Acc)
			}
		}
	}
	// And the stores must have been the path actually used.
	if cached.Stats().Gathers == 0 || sharded.Stats().Gathers == 0 {
		t.Fatal("training did not gather through the configured store")
	}
	if cached.Stats().BytesSaved == 0 {
		t.Fatal("cached store saved no transfer during training")
	}
}

func TestConfigValidation(t *testing.T) {
	ds := smallDS(t)
	cfg := smallCfg()
	cfg.Fanouts = []int{5} // wrong length for 2 layers
	if _, err := New(ds, cfg); err == nil {
		t.Fatal("expected fanout/layer mismatch error")
	}
	cfg = smallCfg()
	cfg.Arch = "GCN-nonexistent"
	if _, err := New(ds, cfg); err == nil {
		t.Fatal("expected unknown-architecture error")
	}
}

func TestDefaultsMatchPaperTable5(t *testing.T) {
	var c Config
	c.Defaults()
	if c.Hidden != 256 || c.Layers != 3 || c.BatchSize != 1024 {
		t.Fatalf("defaults diverge from Table 5: %+v", c)
	}
	if len(c.Fanouts) != 3 || c.Fanouts[0] != 15 || c.Fanouts[1] != 10 || c.Fanouts[2] != 5 {
		t.Fatalf("default fanouts %v, want (15,10,5)", c.Fanouts)
	}
}
