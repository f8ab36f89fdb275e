package train

import (
	"testing"

	"salient/internal/graph"
)

// TestTrainerDynamicZeroDeltaBitIdentical extends the tentpole bit-identity
// oracle to executed data-parallel training: R replicas training over a
// Dynamic graph with zero applied deltas finish with parameters
// bit-identical to the static-graph trainer (and therefore, transitively
// through TestTrainerMatchesUnionBitForBit, to the serial union oracle).
func TestTrainerDynamicZeroDeltaBitIdentical(t *testing.T) {
	ds := smallDS(t)
	for _, R := range []int{2, 4} {
		cfg := ddpCfg(R)
		static, err := New(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := static.Fit(2); err != nil {
			t.Fatal(err)
		}

		dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dcfg := ddpCfg(R)
		dcfg.Graph = dyn
		dynamic, err := New(ds, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dynamic.Fit(2); err != nil {
			t.Fatal(err)
		}
		assertParamsBitEqual(t, "static vs dynamic(0 deltas)", static.Model.Params(), dynamic.Model.Params())
	}
}

// TestTrainerEpochPinsOneSnapshotAcrossReplicas: updates applied between
// epochs are adopted by ALL replicas together at the next epoch boundary —
// every replica's stream reports the same pinned version, and training
// stays deterministic (two trainers over identically churned graphs agree).
func TestTrainerEpochPinsOneSnapshotAcrossReplicas(t *testing.T) {
	ds := smallDS(t)
	mk := func() (*Trainer, *graph.Dynamic) {
		dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := ddpCfg(2)
		cfg.Graph = dyn
		tr, err := New(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr, dyn
	}
	churn := func(dyn *graph.Dynamic) {
		src := make([]int32, 64)
		dst := make([]int32, 64)
		for i := range src {
			src[i] = int32(i % int(ds.G.N))
			dst[i] = int32((i * 7) % int(ds.G.N))
		}
		if _, err := dyn.AddEdges(src, dst); err != nil {
			t.Fatal(err)
		}
	}
	a, dynA := mk()
	b, dynB := mk()
	for e := 0; e < 2; e++ {
		if _, err := a.TrainEpoch(e); err != nil {
			t.Fatal(err)
		}
		if _, err := b.TrainEpoch(e); err != nil {
			t.Fatal(err)
		}
		churn(dynA)
		churn(dynB)
	}
	assertParamsBitEqual(t, "identically churned trainers", a.Model.Params(), b.Model.Params())
	if v := a.pin.View().Version(); v != 1 {
		t.Fatalf("trainer pinned version %d after first churn adoption, want 1", v)
	}
}
