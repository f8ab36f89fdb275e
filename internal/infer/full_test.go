package infer

import (
	"math"
	"testing"

	"salient/internal/dataset"
	"salient/internal/graph"
	"salient/internal/nn"
	"salient/internal/rng"
	"salient/internal/sampler"
	"salient/internal/tensor"
	"salient/internal/train"
)

var allArchs = []string{"SAGE", "GAT", "GIN", "SAGE-RI"}

// smallGraph is a tiny dataset on which full and sampled inference can be
// compared node by node.
func smallGraph(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "t", Nodes: 400, EdgesPerNew: 4, FeatDim: 6, NumClasses: 5,
		Homophily: 0.7, NoiseScale: 0.4, TrainFrac: 0.5, ValFrac: 0.2, TestFrac: 0.3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func smallModel(t testing.TB, arch string, ds *dataset.Dataset) nn.Model {
	t.Helper()
	m, err := train.NewModel(arch, nn.ModelConfig{In: ds.FeatDim, Hidden: 8, Out: ds.NumClasses, Layers: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fullLogp runs m's eval forward over g's whole-graph MFG: the
// log-probabilities FullThrough predicts from.
func fullLogp(t testing.TB, m nn.Model, g graph.Topology, x *tensor.Dense) *tensor.Dense {
	t.Helper()
	full, err := wholeGraphMFG(g, m.Layers())
	if err != nil {
		t.Fatal(err)
	}
	return m.Forward(x, full, false)
}

func TestInferFullShapes(t *testing.T) {
	ds := smallGraph(t)
	for _, arch := range allArchs {
		m := smallModel(t, arch, ds)
		logp := fullLogp(t, m, ds.G, ds.Feat)
		if logp.Rows != int(ds.G.N) || logp.Cols != ds.NumClasses {
			t.Fatalf("%s: full inference %dx%d, want %dx%d", arch, logp.Rows, logp.Cols, ds.G.N, ds.NumClasses)
		}
		for i := 0; i < 5; i++ {
			var sum float64
			for _, v := range logp.Row(i) {
				sum += math.Exp(float64(v))
			}
			if math.Abs(sum-1) > 1e-3 {
				t.Fatalf("%s: full inference row %d prob sum %v", arch, i, sum)
			}
		}
		pred, err := FullThrough(m, ds, ds.Test, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pred) != len(ds.Test) {
			t.Fatalf("%s: %d predictions for %d nodes", arch, len(pred), len(ds.Test))
		}
	}
}

// TestSampledInferenceMatchesFullAtMaxFanout checks the §5 phenomenon end
// to end at tiny scale: with fanout >= max degree, sampled mini-batch
// inference equals full-neighborhood inference up to summation order, for
// every architecture.
func TestSampledInferenceMatchesFullAtMaxFanout(t *testing.T) {
	ds := smallGraph(t)
	huge := int(ds.G.MaxDegree()) + 1
	s := sampler.New(ds.G, []int{huge, huge}, sampler.FastConfig())
	probe := ds.Test[:16]
	g := s.Sample(rng.New(1), probe)
	x := tensor.New(g.TotalNodes(), ds.FeatDim)
	tensor.Gather(x, ds.Feat, g.NodeIDs)
	for _, arch := range allArchs {
		m := smallModel(t, arch, ds)
		full := fullLogp(t, m, ds.G, ds.Feat)
		lp := m.Forward(x, g, false)
		for i, node := range probe {
			for c := 0; c < ds.NumClasses; c++ {
				if diff := math.Abs(float64(lp.At(i, c) - full.At(int(node), c))); diff > 1e-3 {
					t.Fatalf("%s node %d class %d: sampled %.5f full %.5f",
						arch, node, c, lp.At(i, c), full.At(int(node), c))
				}
			}
		}
	}
}

// hugeTopology reports more adjacency entries than an MFG block's int32
// edge offsets can index.
type hugeTopology struct{ graph.Topology }

func (hugeTopology) NumEdges() int64 { return math.MaxInt32 + 1 }

func TestFullRejectsEdgesPastInt32(t *testing.T) {
	ds := smallGraph(t)
	if _, err := wholeGraphMFG(hugeTopology{ds.G}, 2); err == nil {
		t.Fatal("whole-graph MFG built past the int32 edge bound")
	}
}
