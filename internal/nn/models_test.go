package nn

import (
	"math"
	"testing"

	"salient/internal/dataset"
	"salient/internal/mfg"
	"salient/internal/rng"
	"salient/internal/sampler"
	"salient/internal/tensor"
)

// smallWorld builds a tiny dataset + a 2-layer sampled MFG for model tests.
func smallWorld(t testing.TB) (*dataset.Dataset, *mfg.MFG) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "t", Nodes: 400, EdgesPerNew: 4, FeatDim: 6, NumClasses: 5,
		Homophily: 0.7, NoiseScale: 0.4, TrainFrac: 0.5, ValFrac: 0.2, TestFrac: 0.3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := sampler.New(ds.G, []int{4, 3}, sampler.FastConfig())
	m := s.Sample(rng.New(77), ds.Train[:8])
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return ds, m
}

func gatherFeatures(ds *dataset.Dataset, m *mfg.MFG) *tensor.Dense {
	x := tensor.New(m.TotalNodes(), ds.FeatDim)
	tensor.Gather(x, ds.Feat, m.NodeIDs)
	return x
}

func batchLabels(ds *dataset.Dataset, m *mfg.MFG) []int32 {
	lbl := make([]int32, m.Batch)
	for i := int32(0); i < m.Batch; i++ {
		lbl[i] = ds.Labels[m.NodeIDs[i]]
	}
	return lbl
}

func buildModel(name string, cfg ModelConfig) Model {
	switch name {
	case "SAGE":
		return NewGraphSAGE(cfg)
	case "GAT":
		return NewGAT(cfg)
	case "GIN":
		return NewGIN(cfg)
	case "SAGE-RI":
		return NewSAGERI(cfg)
	}
	panic("unknown model " + name)
}

var allModelNames = []string{"SAGE", "GAT", "GIN", "SAGE-RI"}

func TestModelsForwardShapes(t *testing.T) {
	ds, m := smallWorld(t)
	for _, name := range allModelNames {
		model := buildModel(name, ModelConfig{In: ds.FeatDim, Hidden: 8, Out: ds.NumClasses, Layers: 2, Seed: 3})
		x := gatherFeatures(ds, m)
		logp := model.Forward(x, m, true)
		if logp.Rows != int(m.Batch) || logp.Cols != ds.NumClasses {
			t.Fatalf("%s: output %dx%d, want %dx%d", name, logp.Rows, logp.Cols, m.Batch, ds.NumClasses)
		}
		// Rows are log-probabilities.
		for i := 0; i < logp.Rows; i++ {
			var sum float64
			for _, v := range logp.Row(i) {
				sum += math.Exp(float64(v))
			}
			if math.Abs(sum-1) > 1e-3 {
				t.Fatalf("%s: row %d prob sum %v", name, i, sum)
			}
		}
	}
}

// TestModelsGradCheck verifies parameter gradients of each full model in
// eval-dropout mode (dropout disabled so finite differences are valid;
// batch norm runs in training mode, which is deterministic).
func TestModelsGradCheck(t *testing.T) {
	ds, m := smallWorld(t)
	for _, name := range allModelNames {
		model := buildModel(name, ModelConfig{In: ds.FeatDim, Hidden: 4, Out: 3, Layers: 2, Seed: 5})
		disableDropout(model)
		x := gatherFeatures(ds, m)
		labels := batchLabels(ds, m)
		for i := range labels {
			labels[i] %= 3
		}

		loss := func() float64 {
			lp := model.Forward(x.Clone(), m, true)
			return tensor.NLLLoss(lp, labels, nil)
		}
		runBackward := func() {
			lp := model.Forward(x.Clone(), m, true)
			dLogp := tensor.New(lp.Rows, lp.Cols)
			tensor.NLLLoss(lp, labels, dLogp)
			model.Backward(dLogp)
		}
		params := model.Params()
		ZeroGrad(params)
		runBackward()
		// Check a deterministic subset of each parameter tensor (full sweeps
		// of every element across 4 models would be slow).
		const eps = 1e-3
		for _, p := range params {
			stride := len(p.W.Data)/4 + 1
			for i := 0; i < len(p.W.Data); i += stride {
				orig := p.W.Data[i]
				p.W.Data[i] = orig + eps
				up := loss()
				p.W.Data[i] = orig - eps
				down := loss()
				p.W.Data[i] = orig
				numeric := (up - down) / (2 * eps)
				analytic := float64(p.G.Data[i])
				if math.Abs(numeric-analytic) > 5e-2*(1+math.Abs(numeric)) {
					t.Fatalf("%s %s[%d]: numeric %.6f analytic %.6f",
						name, p.Name, i, numeric, analytic)
				}
			}
		}
	}
}

// disableDropout zeroes all dropout probabilities via the concrete types.
func disableDropout(m Model) {
	switch mm := m.(type) {
	case *GraphSAGE:
		for _, d := range mm.drops {
			d.P = 0
		}
	case *GATModel:
		for _, d := range mm.drops {
			d.P = 0
		}
	case *GINModel:
		mm.drop.P = 0
	case *SAGERI:
		mm.drop0.P = 0
		for _, d := range mm.dropIn {
			d.P = 0
		}
		for _, d := range mm.dropOut {
			d.P = 0
		}
	}
}

// TestTrainingReducesLoss runs a few Adam steps per model on one batch and
// requires the loss to drop: an end-to-end sanity check that forward,
// backward and the optimizer cooperate.
func TestTrainingReducesLoss(t *testing.T) {
	ds, m := smallWorld(t)
	for _, name := range allModelNames {
		model := buildModel(name, ModelConfig{In: ds.FeatDim, Hidden: 16, Out: ds.NumClasses, Layers: 2, Seed: 9})
		disableDropout(model) // deterministic single-batch overfit
		labels := batchLabels(ds, m)
		params := model.Params()
		opt := NewAdam(params, 0.01)

		var first, last float64
		for it := 0; it < 30; it++ {
			x := gatherFeatures(ds, m)
			lp := model.Forward(x, m, true)
			dLogp := tensor.New(lp.Rows, lp.Cols)
			loss := tensor.NLLLoss(lp, labels, dLogp)
			if it == 0 {
				first = loss
			}
			last = loss
			ZeroGrad(params)
			model.Backward(dLogp)
			opt.Step(params)
		}
		if !(last < first*0.8) {
			t.Fatalf("%s: loss did not drop (%.4f -> %.4f)", name, first, last)
		}
	}
}

func TestModelNames(t *testing.T) {
	ds, _ := smallWorld(t)
	cfg := ModelConfig{In: ds.FeatDim, Hidden: 4, Out: 3, Layers: 2, Seed: 1}
	for _, name := range allModelNames {
		if got := buildModel(name, cfg).Name(); got != name {
			t.Fatalf("Name() = %q, want %q", got, name)
		}
	}
}

func TestModelConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	NewGraphSAGE(ModelConfig{In: 0, Hidden: 1, Out: 1, Layers: 1})
}

// firstConv returns a model's layer-0 convolution.
func firstConv(m Model) conv {
	switch mm := m.(type) {
	case *GraphSAGE:
		return mm.convs[0]
	case *GATModel:
		return mm.convs[0]
	case *GINModel:
		return mm.convs[0]
	case *SAGERI:
		return mm.convs[0]
	}
	panic("unknown model " + m.Name())
}

// restoreLayer0InputGrad is the test hook that turns a model's layer-0
// input gradient back on, so Backward again does all the work it did before
// the first layer stopped computing the discarded raw-feature gradient.
func restoreLayer0InputGrad(m Model) {
	switch c := firstConv(m).(type) {
	case *SAGEConv:
		c.inputLayer = false
	case *GATConv:
		c.inputLayer = false
	case *GINConv:
		c.inputLayer = false
	}
}

// TestLayer0InputGradSkipIsGradientIdentity trains two identically seeded
// copies of each architecture on the same batch, dropout on, one with its
// layer-0 input gradient restored through the test hook. Skipping that
// gradient must not change a single bit of any parameter gradient, step
// after step.
func TestLayer0InputGradSkipIsGradientIdentity(t *testing.T) {
	ds, m := smallWorld(t)
	labels := batchLabels(ds, m)
	for _, name := range allModelNames {
		cfg := ModelConfig{In: ds.FeatDim, Hidden: 8, Out: ds.NumClasses, Layers: 2, Seed: 13}
		skip, full := buildModel(name, cfg), buildModel(name, cfg)
		restoreLayer0InputGrad(full)
		models := []Model{skip, full}
		opts := []*Adam{NewAdam(skip.Params(), 0.01), NewAdam(full.Params(), 0.01)}
		for step := 0; step < 3; step++ {
			for k, model := range models {
				model.(DropoutReseeder).ReseedDropout(uint64(100 + step))
				lp := model.Forward(gatherFeatures(ds, m), m, true)
				dLogp := tensor.New(lp.Rows, lp.Cols)
				tensor.NLLLoss(lp, labels, dLogp)
				ZeroGrad(model.Params())
				model.Backward(dLogp)
				opts[k].Step(model.Params())
			}
			sp, fp := skip.Params(), full.Params()
			for i := range sp {
				for j := range sp[i].G.Data {
					if math.Float32bits(sp[i].G.Data[j]) != math.Float32bits(fp[i].G.Data[j]) {
						t.Fatalf("%s step %d: %s.G[%d] = %v without the layer-0 input gradient, %v with it",
							name, step, sp[i].Name, j, sp[i].G.Data[j], fp[i].G.Data[j])
					}
				}
			}
		}
		// The hook must really have restored the input gradient.
		dy := tensor.New(int(m.Blocks[0].NumDst), firstConv(full).Params()[0].W.Cols)
		skip.Forward(gatherFeatures(ds, m), m, true)
		full.Forward(gatherFeatures(ds, m), m, true)
		if firstConv(skip).Backward(dy) != nil || firstConv(full).Backward(dy) == nil {
			t.Fatalf("%s: layer-0 Backward returns an input gradient only with the hook", name)
		}
	}
}
