package bench

import (
	"fmt"
	"math"

	"salient/internal/dataset"
	"salient/internal/infer"
	"salient/internal/train"
)

// AccuracyOpts sizes the real-training experiments. The paper's experiments
// run for 25 epochs on the full OGB datasets with 5 repetitions; here the
// datasets are the synthetic stand-ins and sizes are configurable so the
// quick preset finishes on a laptop core while the full preset gives
// tighter error bars.
type AccuracyOpts struct {
	Scale   float64 // dataset scale factor (1.0 = the repo's reduced preset)
	Hidden  int
	Layers  int
	Epochs  int
	Reps    int // training/inference repetitions for mean±std
	Workers int
	Seed    uint64
}

// Quick returns a preset that completes in roughly a minute.
func Quick() AccuracyOpts {
	return AccuracyOpts{Scale: 0.15, Hidden: 48, Layers: 3, Epochs: 8, Reps: 2, Workers: 4, Seed: 1}
}

// FullAcc returns the thorough preset used for EXPERIMENTS.md.
func FullAcc() AccuracyOpts {
	return AccuracyOpts{Scale: 0.4, Hidden: 64, Layers: 3, Epochs: 12, Reps: 3, Workers: 4, Seed: 1}
}

func (o *AccuracyOpts) defaults() {
	q := Quick()
	if o.Scale == 0 {
		o.Scale = q.Scale
	}
	if o.Hidden == 0 {
		o.Hidden = q.Hidden
	}
	if o.Layers == 0 {
		o.Layers = q.Layers
	}
	if o.Epochs == 0 {
		o.Epochs = q.Epochs
	}
	if o.Reps == 0 {
		o.Reps = q.Reps
	}
	if o.Workers == 0 {
		o.Workers = q.Workers
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// trainFanouts returns training fanouts matching the layer count, following
// the paper's (15, 10, 5) pattern.
func trainFanouts(layers int) []int {
	base := []int{15, 10, 5}
	if layers <= len(base) {
		return base[len(base)-layers:]
	}
	out := make([]int, layers)
	for i := range out {
		out[i] = 10
	}
	return out
}

// uniformFanout returns an L-layer fanout of d per layer.
func uniformFanout(layers, d int) []int {
	out := make([]int, layers)
	for i := range out {
		out[i] = d
	}
	return out
}

// fit trains a fresh model on ds and returns the trainer.
func fit(ds *dataset.Dataset, o AccuracyOpts, seed uint64) (*train.Trainer, error) {
	tr, err := train.New(ds, train.Config{
		Arch:      "SAGE",
		Hidden:    o.Hidden,
		Layers:    o.Layers,
		Fanouts:   trainFanouts(o.Layers),
		BatchSize: 256,
		Workers:   o.Workers,
		Seed:      seed,
	})
	if err != nil {
		return nil, err
	}
	if _, err := tr.Fit(o.Epochs); err != nil {
		return nil, err
	}
	return tr, nil
}

// meanStd returns the mean and sample standard deviation.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)-1))
}

// Table6 reproduces the inference-fanout accuracy study (paper Table 6):
// test accuracy under full neighborhoods versus sampled inference with
// fanouts 20, 10 and 5 per layer, mean±std over repetitions.
func Table6(o AccuracyOpts) (Table, error) {
	o.defaults()
	t := Table{
		ID:     "table6",
		Title:  "Test accuracy under various neighborhood fanouts for inference (SAGE)",
		Header: []string{"Data Set", "all", "(20,20,20)", "(10,10,10)", "(5,5,5)"},
	}
	fanouts := []int{20, 10, 5}
	for _, name := range datasetOrder {
		accs := make(map[string][]float64)
		for rep := 0; rep < o.Reps; rep++ {
			ds, err := dataset.Load(name, o.Scale)
			if err != nil {
				return t, err
			}
			tr, err := fit(ds, o, o.Seed+uint64(rep)*101)
			if err != nil {
				return t, err
			}
			full, err := infer.FullThrough(tr.Model, ds, ds.Test, nil)
			if err != nil {
				return t, err
			}
			accs["all"] = append(accs["all"], infer.Accuracy(full, ds.Labels, ds.Test))
			for _, d := range fanouts {
				pred, err := infer.Sampled(tr.Model, ds, ds.Test, infer.Options{
					Fanouts: uniformFanout(o.Layers, d),
					Workers: o.Workers,
					Seed:    o.Seed + uint64(rep)*7 + uint64(d),
				})
				if err != nil {
					return t, err
				}
				key := fmt.Sprintf("%d", d)
				accs[key] = append(accs[key], infer.Accuracy(pred, ds.Labels, ds.Test))
			}
		}
		row := []string{name}
		for _, key := range []string{"all", "20", "10", "5"} {
			m, s := meanStd(accs[key])
			row = append(row, fmt.Sprintf(".%04.0f±.%03.0f", m*1e4, s*1e3))
		}
		t.Rows = append(t.Rows, row)
	}
	t.AddNote("paper (papers100M): all .6491  (20) .6458  (10) .6379  (5) .6163 — fanout 20 matches full")
	t.AddNote("datasets here are the synthetic stand-ins at scale %.2f; compare trends, not absolutes", o.Scale)
	return t, nil
}

// Fig3 reproduces the accuracy-versus-degree profile (paper Figure 3) on
// the products stand-in: per-degree-bin test accuracy for full-neighborhood
// inference and sampled inference with fanouts 20, 10 and 5.
func Fig3(o AccuracyOpts) (Table, error) {
	o.defaults()
	t := Table{
		ID:     "fig3",
		Title:  "Test accuracy and node count versus node degree (products, SAGE)",
		Header: []string{"Degree bin", "nodes", "pdf", "all", "20", "10", "5"},
	}
	ds, err := dataset.Load(dataset.Products, o.Scale)
	if err != nil {
		return t, err
	}
	tr, err := fit(ds, o, o.Seed)
	if err != nil {
		return t, err
	}

	full, err := infer.FullThrough(tr.Model, ds, ds.Test, nil)
	if err != nil {
		return t, err
	}
	bins := infer.AccuracyByDegree(ds.G, full, ds.Labels, ds.Test)
	series := map[int][]infer.DegreeBin{}
	for _, d := range []int{20, 10, 5} {
		pred, err := infer.Sampled(tr.Model, ds, ds.Test, infer.Options{
			Fanouts: uniformFanout(o.Layers, d),
			Workers: o.Workers,
			Seed:    o.Seed + uint64(d),
		})
		if err != nil {
			return t, err
		}
		series[d] = infer.AccuracyByDegree(ds.G, pred, ds.Labels, ds.Test)
	}

	find := func(bs []infer.DegreeBin, lo int32) (infer.DegreeBin, bool) {
		for _, b := range bs {
			if b.Lo == lo {
				return b, true
			}
		}
		return infer.DegreeBin{}, false
	}
	for _, b := range bins {
		row := []string{
			fmt.Sprintf("[%d,%d)", b.Lo, b.Hi),
			fmt.Sprintf("%d", b.Count),
			fmt.Sprintf("%.3f", b.MassFrac),
			fmt.Sprintf("%.3f", b.Accuracy),
		}
		for _, d := range []int{20, 10, 5} {
			if sb, ok := find(series[d], b.Lo); ok {
				row = append(row, fmt.Sprintf("%.3f", sb.Accuracy))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.AddNote("paper: high-degree nodes are few and predicted worse even with full neighborhoods;")
	t.AddNote("small fanouts already match the low-degree mass, larger fanouts close the high-degree tail")
	return t, nil
}

// Fig6Accuracy reproduces the accuracy half of paper Figure 6: final test
// accuracy of the four architectures after training on the papers stand-in.
func Fig6Accuracy(o AccuracyOpts) (Table, error) {
	o.defaults()
	t := Table{
		ID:     "fig6acc",
		Title:  "Test accuracy by architecture (papers stand-in, sampled inference fanout 20)",
		Header: []string{"GNN", "Test accuracy"},
	}
	ds, err := dataset.Load(dataset.Papers, o.Scale)
	if err != nil {
		return t, err
	}
	for _, arch := range []string{"SAGE", "GIN", "GAT", "SAGE-RI"} {
		cfg := train.Config{
			Arch:      arch,
			Hidden:    o.Hidden,
			Layers:    o.Layers,
			Fanouts:   trainFanouts(o.Layers),
			BatchSize: 256,
			Workers:   o.Workers,
			Seed:      o.Seed,
		}
		if arch == "GIN" {
			cfg.Fanouts = uniformFanout(o.Layers, 20)
		}
		if arch == "SAGE-RI" {
			cfg.Fanouts = uniformFanout(o.Layers, 12)
		}
		tr, err := train.New(ds, cfg)
		if err != nil {
			return t, err
		}
		if _, err := tr.Fit(o.Epochs); err != nil {
			return t, err
		}
		pred, err := infer.Sampled(tr.Model, ds, ds.Test, infer.Options{
			Fanouts: uniformFanout(o.Layers, 20),
			Workers: o.Workers,
			Seed:    o.Seed,
		})
		if err != nil {
			return t, err
		}
		t.AddRow(arch, fmt.Sprintf("%.4f", infer.Accuracy(pred, ds.Labels, ds.Test)))
	}
	t.AddNote("paper (papers100M, 25 epochs): all four in the .62-.66 band, SAGE-RI best with moderate tuning")
	return t, nil
}
