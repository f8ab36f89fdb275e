package nn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"salient/internal/mfg"
	"salient/internal/slicing"
	"salient/internal/tensor"
)

// evalForwards returns every eval-mode entry point of model over (x, g):
// Forward, and for the models that have them the split and fused forwards.
func evalForwards(model Model, x *tensor.Dense, g *mfg.MFG) map[string]func() *tensor.Dense {
	fs := map[string]func() *tensor.Dense{
		"Forward": func() *tensor.Dense { return model.Forward(x, g, false) },
	}
	if rm, ok := model.(ResumeModel); ok {
		fs["ForwardLayer1+ForwardRest"] = func() *tensor.Dense {
			return rm.ForwardRest(rm.ForwardLayer1(x, g, false), g, false)
		}
	}
	if fm, ok := model.(FusedModel); ok {
		blk := &g.Blocks[0]
		agg := aggregateMeanBlock(x, blk)
		if fm.FusedOp() == slicing.AggSum {
			agg = aggregateSumBlock(x, blk)
		}
		xt := tensor.FromSlice(int(blk.NumDst), x.Cols, x.Data[:int(blk.NumDst)*x.Cols])
		fs["ForwardFused"] = func() *tensor.Dense { return fm.ForwardFused(agg, xt, g, false) }
	}
	return fs
}

func firstBitDiff(a, b *tensor.Dense) int {
	for k := range a.Data {
		if math.Float32bits(a.Data[k]) != math.Float32bits(b.Data[k]) {
			return k
		}
	}
	return -1
}

// TestConcurrentEvalForwardsShareOneModel: an eval forward writes no model
// or layer field. Two goroutines run every eval entry point through one
// model at once, between a training forward and its Backward; each output
// must equal the serial forward's bit for bit, and the Backward must still
// produce the gradients of a twin model that ran no eval forward at all.
// Under -race, any write an eval forward makes to shared state is reported.
func TestConcurrentEvalForwardsShareOneModel(t *testing.T) {
	ds, m := smallWorld(t)
	x := gatherFeatures(ds, m)
	labels := batchLabels(ds, m)
	for _, name := range allModelNames {
		cfg := ModelConfig{In: ds.FeatDim, Hidden: 8, Out: ds.NumClasses, Layers: 2, Seed: 17}
		model, twin := buildModel(name, cfg), buildModel(name, cfg)
		backward := func(lp *tensor.Dense, md Model) {
			dLogp := tensor.New(lp.Rows, lp.Cols)
			tensor.NLLLoss(lp, labels, dLogp)
			ZeroGrad(md.Params())
			md.Backward(dLogp)
		}
		// The training forward comes first: it moves BatchNorm's running
		// statistics, which the eval forwards then read.
		lp := model.Forward(x.Clone(), m, true)
		forwards := evalForwards(model, x, m)
		want := map[string]*tensor.Dense{}
		for k, f := range forwards {
			want[k] = f()
		}

		var wg sync.WaitGroup
		errs := make(chan string, 2)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					for k, f := range forwards {
						if d := firstBitDiff(f(), want[k]); d >= 0 {
							errs <- fmt.Sprintf("%s %s: element %d differs from the serial forward", name, k, d)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}

		backward(lp, model)
		backward(twin.Forward(x.Clone(), m, true), twin)
		mp, tp := model.Params(), twin.Params()
		for i := range mp {
			if d := firstBitDiff(mp[i].G, tp[i].G); d >= 0 {
				t.Fatalf("%s: %s.G[%d] changed by the eval forwards between Forward and Backward", name, mp[i].Name, d)
			}
		}
	}
}
