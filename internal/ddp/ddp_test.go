package ddp

import (
	"testing"

	"salient/internal/dataset"
	"salient/internal/device"
	"salient/internal/mfg"
	"salient/internal/nn"
	"salient/internal/prep"
	"salient/internal/rng"
	"salient/internal/sampler"
	"salient/internal/tensor"
)

func TestScalingMonotoneAndInPaperBand(t *testing.T) {
	pr := device.PaperProfile()
	counts := []int{1, 2, 4, 8, 16}
	speedups := map[string]float64{}
	for name, cal := range device.Calibrations() {
		res := ScalingCurve(pr, cal, counts, 2, 7)
		for i := 1; i < len(res); i++ {
			if res[i].Epoch >= res[i-1].Epoch {
				t.Fatalf("%s: epoch time not decreasing at %d GPUs (%.3f -> %.3f)",
					name, counts[i], res[i-1].Epoch, res[i].Epoch)
			}
		}
		speedups[name] = res[0].Epoch / res[len(res)-1].Epoch
	}
	// Figure 5: 16-GPU speedups between 4.45x and 8.05x, larger graphs
	// scaling better.
	for name, s := range speedups {
		if s < 3.8 || s > 8.8 {
			t.Fatalf("%s: 16-GPU speedup %.2fx outside the paper's band", name, s)
		}
	}
	if !(speedups["arxiv"] < speedups["products"] && speedups["products"] <= speedups["papers"]+1e-9) {
		t.Fatalf("speedups not ordered by graph size: %v", speedups)
	}
}

func TestPapersHeadlineNumbers(t *testing.T) {
	// The abstract's headline: papers100M trains in ~2.0 s/epoch on 16 GPUs.
	pr := device.PaperProfile()
	res := SimulateEpoch(pr, device.Calibration("papers"), 16, 2, 7)
	if res.Epoch < 1.6 || res.Epoch > 2.6 {
		t.Fatalf("papers 16-GPU epoch %.2fs, want ~2.0s", res.Epoch)
	}
}

func TestBaselineSlowerThanSalientEverywhere(t *testing.T) {
	pr := device.PaperProfile()
	for name, cal := range device.Calibrations() {
		for _, n := range []int{1, 4, 16} {
			sal := SimulateEpoch(pr, cal, n, 2, 7)
			base := SimulateBaselineEpoch(pr, cal, n, 2, 7)
			if base.Epoch <= sal.Epoch {
				t.Fatalf("%s@%d: baseline %.2fs not slower than SALIENT %.2fs",
					name, n, base.Epoch, sal.Epoch)
			}
		}
	}
}

func TestSimulateEpochDeterministic(t *testing.T) {
	pr := device.PaperProfile()
	cal := device.Calibration("products")
	a := SimulateEpoch(pr, cal, 8, 2, 5)
	b := SimulateEpoch(pr, cal, 8, 2, 5)
	if a != b {
		t.Fatal("same seed produced different results")
	}
}

func TestSimulateEpochPanicsOnZeroReplicas(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SimulateEpoch(device.PaperProfile(), device.Calibration("arxiv"), 0, 2, 1)
}

// buildReplicas trains R model replicas on disjoint shards of one batch and
// returns models plus per-replica inputs.
func gradOn(m nn.Model, x *tensor.Dense, g *mfg.MFG, labels []int32) {
	logp := m.Forward(x, g, true)
	grad := tensor.New(logp.Rows, logp.Cols)
	tensor.NLLLoss(logp, labels, grad)
	nn.ZeroGrad(m.Params())
	m.Backward(grad)
}

// TestAverageGradientsEqualsUnionBatch verifies DDP's semantic core on real
// models: with identical parameters, the average of per-shard gradients
// equals the gradient of the union batch (NLL losses are per-row means, so
// equal shard sizes make the average exact).
func TestAverageGradientsEqualsUnionBatch(t *testing.T) {
	ds, err := dataset.Load(dataset.Arxiv, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// One SAGE layer has no dropout, so its training-mode forward, which
	// Backward needs, is deterministic and the gradients are comparable.
	cfg := nn.ModelConfig{In: ds.FeatDim, Hidden: 16, Out: ds.NumClasses, Layers: 1, Seed: 9}
	const shard = 32

	mkModel := func() nn.Model { return nn.NewGraphSAGE(cfg) }
	union := mkModel()
	repA := mkModel()
	repB := mkModel()
	SyncParams([][]*nn.Param{union.Params(), repA.Params(), repB.Params()})

	// Full-neighborhood "sampling" makes shard MFGs deterministic.
	fan := []int{1000}
	sm := sampler.New(ds.G, fan, sampler.FastConfig())
	seedsA := ds.Train[:shard]
	seedsB := ds.Train[shard : 2*shard]
	seedsU := ds.Train[:2*shard]

	slice := func(g *mfg.MFG) (*tensor.Dense, []int32) {
		x := tensor.New(len(g.NodeIDs), ds.FeatDim)
		for i, id := range g.NodeIDs {
			copy(x.Row(i), ds.Feat.Row(int(id)))
		}
		labels := make([]int32, g.Batch)
		for i := int32(0); i < g.Batch; i++ {
			labels[i] = ds.Labels[g.NodeIDs[i]]
		}
		return x, labels
	}

	gA := sm.Sample(rng.New(1), seedsA)
	xA, lA := slice(gA)
	gradOn(repA, xA, gA, lA)

	gB := sm.Sample(rng.New(1), seedsB)
	xB, lB := slice(gB)
	gradOn(repB, xB, gB, lB)

	gU := sm.Sample(rng.New(1), seedsU)
	xU, lU := slice(gU)
	gradOn(union, xU, gU, lU)

	AverageGradients([][]*nn.Param{repA.Params(), repB.Params()})

	for i, p := range union.Params() {
		diff := p.G.MaxAbsDiff(repA.Params()[i].G)
		if diff > 1e-4 {
			t.Fatalf("param %s: averaged shard gradient differs from union gradient by %v", p.Name, diff)
		}
	}
}

func TestAverageGradientsMakesReplicasIdentical(t *testing.T) {
	cfg := nn.ModelConfig{In: 8, Hidden: 8, Out: 4, Layers: 2, Seed: 3}
	reps := [][]*nn.Param{
		nn.NewGraphSAGE(cfg).Params(),
		nn.NewGraphSAGE(cfg).Params(),
		nn.NewGraphSAGE(cfg).Params(),
	}
	r := rng.New(11)
	for _, ps := range reps {
		for _, p := range ps {
			for i := range p.G.Data {
				p.G.Data[i] = r.Float32() - 0.5
			}
		}
	}
	AverageGradients(reps)
	for i := range reps[0] {
		for rep := 1; rep < len(reps); rep++ {
			if d := reps[0][i].G.MaxAbsDiff(reps[rep][i].G); d != 0 {
				t.Fatalf("replica %d param %d gradient differs by %v after all-reduce", rep, i, d)
			}
		}
	}
	AverageGradients(nil) // must not panic
}

func TestSyncParams(t *testing.T) {
	cfg := nn.ModelConfig{In: 8, Hidden: 8, Out: 4, Layers: 2, Seed: 3}
	a := nn.NewGraphSAGE(cfg)
	b := nn.NewGraphSAGE(cfg)
	b.Params()[0].W.Fill(123)
	SyncParams([][]*nn.Param{a.Params(), b.Params()})
	for i := range a.Params() {
		if d := a.Params()[i].W.MaxAbsDiff(b.Params()[i].W); d != 0 {
			t.Fatalf("param %d differs by %v after broadcast", i, d)
		}
	}
	SyncParams([][]*nn.Param{a.Params()}) // single replica: no-op
}

// TestPartitioningSchemeSharedWithSimulator pins the satellite invariant:
// the virtual-time simulators report the replica/seed partitioning scheme
// that the executing trainer and its Union oracle run
// (train.TestExecutedStepsFollowDDPScheme checks the executed side).
func TestPartitioningSchemeSharedWithSimulator(t *testing.T) {
	pr := device.PaperProfile()
	for _, tc := range []struct{ nb, replicas int }{
		{10, 1}, {10, 2}, {10, 3}, {7, 4}, {1, 8}, {16, 16},
	} {
		cal := device.Calibration("arxiv")
		cal.Batches = tc.nb
		sim := SimulateEpoch(pr, cal, tc.replicas, 2, 1)
		if sim.Steps != StepsFor(tc.nb, tc.replicas) {
			t.Fatalf("simulator steps %d != StepsFor(%d,%d)=%d",
				sim.Steps, tc.nb, tc.replicas, StepsFor(tc.nb, tc.replicas))
		}
	}

	// ShardSeeds must tile the permutation: chunk s*R+r of the global
	// schedule is segment s of replica r's shard.
	ds, err := dataset.Load(dataset.Arxiv, 0.05)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	perm := prep.EpochPerm(ds.Train, 99)
	const b, R = 48, 3
	nb := prep.NumBatches(len(perm), b)
	shards := make([][]int32, R)
	for r := range shards {
		shards[r] = ShardSeeds(perm, b, r, R)
	}
	var rebuilt []int32
	offs := make([]int, R)
	for c := 0; c < nb; c++ {
		r := c % R
		lo, hi := c*b, (c+1)*b
		if hi > len(perm) {
			hi = len(perm)
		}
		n := hi - lo
		rebuilt = append(rebuilt, shards[r][offs[r]:offs[r]+n]...)
		offs[r] += n
	}
	if len(rebuilt) != len(perm) {
		t.Fatalf("shards tile %d seeds, perm has %d", len(rebuilt), len(perm))
	}
	for i := range perm {
		if rebuilt[i] != perm[i] {
			t.Fatalf("shard tiling diverges from the global permutation at seed %d", i)
		}
	}
}
