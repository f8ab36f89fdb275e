package infer

import (
	"testing"

	"salient/internal/dataset"
	"salient/internal/graph"
	"salient/internal/nn"
	"salient/internal/store"
	"salient/internal/train"
)

// fitted trains a small model so inference tests exercise a real predictor.
func fitted(t testing.TB) (*dataset.Dataset, *train.Trainer) {
	t.Helper()
	ds, err := dataset.Load(dataset.Arxiv, 0.05)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	tr, err := train.New(ds, train.Config{
		Arch: "SAGE", Hidden: 32, Layers: 2, Fanouts: []int{10, 5},
		BatchSize: 128, LR: 5e-3, Workers: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Fit(4); err != nil {
		t.Fatal(err)
	}
	return ds, tr
}

// TestSampledRejectsFanoutLayerMismatch: one fanout per layer. Too few
// fanouts would index past the MFG's blocks in the forward; too many would
// sample hops the model never reads.
func TestSampledRejectsFanoutLayerMismatch(t *testing.T) {
	ds, err := dataset.Load(dataset.Arxiv, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	m := nn.NewGraphSAGE(nn.ModelConfig{In: ds.FeatDim, Hidden: 8, Out: ds.NumClasses, Layers: 2, Seed: 1})
	for _, fanouts := range [][]int{{5}, {5, 5, 5}} {
		if _, err := Sampled(m, ds, ds.Test[:4], Options{Fanouts: fanouts, Workers: 1}); err == nil {
			t.Errorf("fanouts %v accepted for a 2-layer model", fanouts)
		}
	}
	if _, err := Sampled(m, ds, ds.Test[:4], Options{Fanouts: []int{5, 5}, Workers: 1}); err != nil {
		t.Fatalf("matching fanouts rejected: %v", err)
	}
}

func TestSampledInferenceBeatsChance(t *testing.T) {
	ds, tr := fitted(t)
	pred, err := Sampled(tr.Model, ds, ds.Test, Options{Fanouts: []int{20, 20}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(pred, ds.Labels, ds.Test)
	chance := 1.0 / float64(ds.NumClasses)
	if acc < 4*chance {
		t.Fatalf("sampled test accuracy %.4f barely above chance %.4f", acc, chance)
	}
}

func TestSampledTracksFullNeighborhood(t *testing.T) {
	ds, tr := fitted(t)
	full, err := FullThrough(tr.Model, ds, ds.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullAcc := Accuracy(full, ds.Labels, ds.Test)

	// The paper's Table 6 finding: fanout 20 matches full-neighborhood
	// accuracy closely; tiny fanouts degrade it.
	s20, err := Sampled(tr.Model, ds, ds.Test, Options{Fanouts: []int{20, 20}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	acc20 := Accuracy(s20, ds.Labels, ds.Test)
	if diff := fullAcc - acc20; diff > 0.03 {
		t.Fatalf("fanout-20 accuracy %.4f trails full %.4f by %.4f (>3%%)", acc20, fullAcc, diff)
	}

	s2, err := Sampled(tr.Model, ds, ds.Test, Options{Fanouts: []int{2, 2}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	acc2 := Accuracy(s2, ds.Labels, ds.Test)
	if acc2 > acc20+0.01 {
		t.Fatalf("fanout-2 accuracy %.4f unexpectedly above fanout-20 %.4f", acc2, acc20)
	}
}

func TestPredictionsAlignedWithNodes(t *testing.T) {
	ds, tr := fitted(t)
	nodes := ds.Test[:200]
	pred, err := Sampled(tr.Model, ds, nodes, Options{Fanouts: []int{20, 20}, BatchSize: 64, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != len(nodes) {
		t.Fatalf("got %d predictions for %d nodes", len(pred), len(nodes))
	}
	for i, p := range pred {
		if p < 0 || int(p) >= ds.NumClasses {
			t.Fatalf("prediction %d for node %d out of class range", p, nodes[i])
		}
	}
	// Restricting inference to a subset must give the same predictions as
	// the full run restricted to that subset (determinism + alignment).
	again, err := Sampled(tr.Model, ds, nodes, Options{Fanouts: []int{20, 20}, BatchSize: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range pred {
		if pred[i] == again[i] {
			same++
		}
	}
	if frac := float64(same) / float64(len(pred)); frac < 0.95 {
		t.Fatalf("only %.2f%% of repeated sampled predictions agree", 100*frac)
	}
}

// TestFullThroughStoreMatchesFull: reading the full feature matrix through
// a store changes accounting, never predictions.
func TestFullThroughStoreMatchesFull(t *testing.T) {
	ds, tr := fitted(t)
	want, err := FullThrough(tr.Model, ds, ds.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewFlat(ds)
	got, err := FullThrough(tr.Model, ds, ds.Test, st)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prediction %d differs through the store: %d vs %d", i, got[i], want[i])
		}
	}
	if ss := st.Stats(); ss.Rows != int64(ds.G.N) {
		t.Fatalf("full inference gathered %d rows, want %d", ss.Rows, ds.G.N)
	}
}

func TestAccuracyHelper(t *testing.T) {
	labels := []int32{0, 1, 2, 3}
	nodes := []int32{0, 1, 2, 3}
	pred := []int32{0, 1, 0, 3}
	if got := Accuracy(pred, labels, nodes); got != 0.75 {
		t.Fatalf("accuracy = %v, want 0.75", got)
	}
	if got := Accuracy(nil, labels, nil); got != 0 {
		t.Fatalf("empty accuracy = %v, want 0", got)
	}
}

func TestAccuracyByDegreeBinsPartitionNodes(t *testing.T) {
	ds, tr := fitted(t)
	pred, err := Sampled(tr.Model, ds, ds.Test, Options{Fanouts: []int{10, 10}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bins := AccuracyByDegree(ds.G, pred, ds.Labels, ds.Test)
	if len(bins) == 0 {
		t.Fatal("no degree bins")
	}
	total := 0
	mass := 0.0
	prevHi := int32(0)
	for _, b := range bins {
		if b.Lo < prevHi {
			t.Fatalf("bins overlap: %+v after hi=%d", b, prevHi)
		}
		prevHi = b.Hi
		if b.Accuracy < 0 || b.Accuracy > 1 {
			t.Fatalf("accuracy out of range: %+v", b)
		}
		total += b.Count
		mass += b.MassFrac
	}
	if total != len(ds.Test) {
		t.Fatalf("bins cover %d nodes, want %d", total, len(ds.Test))
	}
	if mass < 0.999 || mass > 1.001 {
		t.Fatalf("bin mass sums to %v, want 1", mass)
	}
}

func TestBinOfBoundaries(t *testing.T) {
	cases := map[int32]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 1023: 10, 1024: 11}
	for d, want := range cases {
		if got := binOf(d); got != want {
			t.Fatalf("binOf(%d) = %d, want %d", d, got, want)
		}
	}
}

// TestSampledDynamicZeroDeltaBitIdentical: sampled inference through a
// Dynamic graph with no applied updates predicts exactly what the static
// path predicts — the inference leg of the tentpole bit-identity oracle.
// Full-neighborhood inference over a zero-delta snapshot's whole-graph MFG
// agrees too.
func TestSampledDynamicZeroDeltaBitIdentical(t *testing.T) {
	ds, tr := fitted(t)
	nodes := ds.Test
	want, err := Sampled(tr.Model, ds, nodes, Options{Fanouts: []int{10, 5}, Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sampled(tr.Model, ds, nodes, Options{Fanouts: []int{10, 5}, Workers: 2, Seed: 5, Graph: dyn})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("node %d: static %d, dynamic(0 deltas) %d", nodes[i], want[i], got[i])
		}
	}
	full := fullLogp(t, tr.Model, ds.G, ds.Feat.Clone())
	fullSnap := fullLogp(t, tr.Model, dyn.Snapshot(), ds.Feat.Clone())
	if d := full.MaxAbsDiff(fullSnap); d != 0 {
		t.Fatalf("full inference diverges on a zero-delta snapshot by %v", d)
	}
}

// TestSampledFusedBitIdentical: fused sampled inference must predict exactly
// what the staged path predicts — same samples, same widened values, same
// edge-order aggregation.
func TestSampledFusedBitIdentical(t *testing.T) {
	ds, tr := fitted(t)
	nodes := ds.Test
	if len(nodes) > 300 {
		nodes = nodes[:300]
	}
	opts := Options{Fanouts: []int{10, 5}, Workers: 2, Seed: 11}
	staged, err := Sampled(tr.Model, ds, nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Fused = true
	fused, err := Sampled(tr.Model, ds, nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range staged {
		if staged[i] != fused[i] {
			t.Fatalf("node %d: staged prediction %d, fused %d", nodes[i], staged[i], fused[i])
		}
	}
	// An unfusable architecture is rejected up front.
	gat, err := train.New(ds, train.Config{
		Arch: "GAT", Hidden: 16, Layers: 2, Fanouts: []int{5, 5},
		BatchSize: 64, Workers: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sampled(gat.Model, ds, nodes[:4], Options{Fanouts: []int{5, 5}, Fused: true}); err == nil {
		t.Fatal("fused inference accepted for GAT")
	}
}
