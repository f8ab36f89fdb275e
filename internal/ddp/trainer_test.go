package ddp

import (
	"errors"
	"sync/atomic"
	"testing"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/device"
	"salient/internal/half"
	"salient/internal/nn"
	"salient/internal/partition"
	"salient/internal/prep"
	"salient/internal/slicing"
	"salient/internal/store"
	"salient/internal/train"
)

func ddpDS(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Load(dataset.Arxiv, 0.05)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return ds
}

func ddpCfg(replicas int) TrainConfig {
	return TrainConfig{
		Config: train.Config{
			Arch:      "SAGE",
			Hidden:    32,
			Layers:    2,
			Fanouts:   []int{10, 5},
			BatchSize: 64,
			LR:        5e-3,
			Workers:   2,
			Seed:      7,
		},
		Replicas: replicas,
	}
}

func assertParamsBitEqual(t *testing.T, label string, a, b []*nn.Param) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d params", label, len(a), len(b))
	}
	for i := range a {
		if d := a[i].W.MaxAbsDiff(b[i].W); d != 0 {
			t.Fatalf("%s: param %s differs by %v", label, a[i].Name, d)
		}
	}
}

// TestTrainerMatchesUnionBitForBit is the full-loop generalization of the
// averaged-shard-equals-union-batch gradient property: R concurrent
// replicas, whose per-step batches union to the single-replica schedule,
// finish with parameters bit-identical to the serial Union oracle.
func TestTrainerMatchesUnionBitForBit(t *testing.T) {
	ds := ddpDS(t)
	for _, R := range []int{2, 4} {
		cfg := ddpCfg(R)
		tr, err := NewTrainer(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Fit(2); err != nil {
			t.Fatal(err)
		}
		un, err := NewUnion(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := un.Fit(2); err != nil {
			t.Fatal(err)
		}
		assertParamsBitEqual(t, "union vs leader", un.Model().Params(), tr.Model().Params())
		// And every replica must agree with the leader, bit for bit.
		for r := 1; r < R; r++ {
			assertParamsBitEqual(t, "leader vs replica", tr.Model().Params(), tr.reps[r].model.Params())
		}
	}
}

// TestTrainerPartialFinalStepMatchesUnion picks a batch size that leaves
// the final step short of replicas, exercising the uneven-input join:
// idle replicas receive the participants' averaged gradient and step in
// lockstep, so the bit-identity survives nb % R != 0.
func TestTrainerPartialFinalStepMatchesUnion(t *testing.T) {
	ds := ddpDS(t)
	const R = 4
	cfg := ddpCfg(R)
	cfg.BatchSize = len(ds.Train)/5 + 1 // nb = 5 -> final step has 1 participant
	nb := prep.NumBatches(len(ds.Train), cfg.BatchSize)
	if nb%R == 0 {
		t.Fatalf("test needs a partial final step, got nb=%d divisible by %d", nb, R)
	}

	tr, err := NewTrainer(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Fit(2); err != nil {
		t.Fatal(err)
	}
	un, err := NewUnion(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := un.Fit(2); err != nil {
		t.Fatal(err)
	}
	assertParamsBitEqual(t, "partial-step union vs leader", un.Model().Params(), tr.Model().Params())
	for r := 1; r < R; r++ {
		assertParamsBitEqual(t, "partial-step replicas", tr.Model().Params(), tr.reps[r].model.Params())
	}
}

// TestTrainerR1MatchesSingleReplicaTrainer: with one replica the executing
// DDP loop degenerates to plain single-replica training — same batches,
// same dropout keys, same updates — and must reproduce train.Trainer bit
// for bit, loss and accuracy included.
func TestTrainerR1MatchesSingleReplicaTrainer(t *testing.T) {
	ds := ddpDS(t)
	cfg := ddpCfg(1)

	tr, err := NewTrainer(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dstats, err := tr.Fit(2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := train.New(ds, cfg.Config)
	if err != nil {
		t.Fatal(err)
	}
	rstats, err := ref.Fit(2)
	if err != nil {
		t.Fatal(err)
	}
	assertParamsBitEqual(t, "R=1 vs train.Trainer", ref.Model.Params(), tr.Model().Params())
	for e := range dstats {
		if dstats[e].Loss != rstats[e].Loss || dstats[e].Acc != rstats[e].Acc {
			t.Fatalf("epoch %d stats diverge: ddp (%v,%v) vs train (%v,%v)",
				e, dstats[e].Loss, dstats[e].Acc, rstats[e].Loss, rstats[e].Acc)
		}
	}
}

// TestTrainerDeterministicAcrossReruns: concurrent replica scheduling must
// never leak into results — two runs with the same seed agree bit for bit.
func TestTrainerDeterministicAcrossReruns(t *testing.T) {
	ds := ddpDS(t)
	run := func() ([]TrainStats, []*nn.Param) {
		tr, err := NewTrainer(ds, ddpCfg(4))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := tr.Fit(2)
		if err != nil {
			t.Fatal(err)
		}
		return stats, tr.Model().Params()
	}
	aStats, aParams := run()
	bStats, bParams := run()
	for e := range aStats {
		if aStats[e].Loss != bStats[e].Loss || aStats[e].Acc != bStats[e].Acc ||
			aStats[e].Batches != bStats[e].Batches || aStats[e].Steps != bStats[e].Steps {
			t.Fatalf("epoch %d not reproducible: %+v vs %+v", e, aStats[e], bStats[e])
		}
	}
	assertParamsBitEqual(t, "rerun", aParams, bParams)
}

// TestPerReplicaStoresDoNotChangeTraining: replicas may gather through
// different feature stores (a shard or cache per device) without changing
// results — layout and transfer accounting only, never batch contents.
func TestPerReplicaStoresDoNotChangeTraining(t *testing.T) {
	ds := ddpDS(t)
	want, err := NewTrainer(ds, ddpCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := want.Fit(2); err != nil {
		t.Fatal(err)
	}

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
	cfg := ddpCfg(2)
	cfg.Stores = []store.FeatureStore{sharded, cached}
	got, err := NewTrainer(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Fit(2); err != nil {
		t.Fatal(err)
	}
	assertParamsBitEqual(t, "per-replica stores", want.Model().Params(), got.Model().Params())
	if sharded.Stats().Gathers == 0 || cached.Stats().Gathers == 0 {
		t.Fatal("training did not gather through the per-replica stores")
	}
}

var errInjected = errors.New("injected gather failure")

// failingStore rejects every Gather after the first `after` calls.
type failingStore struct {
	store.FeatureStore
	after int64
	n     atomic.Int64
}

func (f *failingStore) Gather(dst *slicing.Pinned, nodeIDs []int32, batch int) error {
	if f.n.Add(1) > f.after {
		return errInjected
	}
	return f.FeatureStore.Gather(dst, nodeIDs, batch)
}

// TestTrainerErrorInjectionCancelsCleanly: a mid-epoch gather failure on
// one replica must surface as the epoch's error and cancel the other
// replicas at the step barrier — streams drained, no deadlock, no panic.
// Running under -race additionally checks the teardown for races.
func TestTrainerErrorInjectionCancelsCleanly(t *testing.T) {
	ds := ddpDS(t)
	cfg := ddpCfg(3)
	flat := store.NewFlat(ds)
	cfg.Stores = []store.FeatureStore{
		store.NewFlat(ds),
		&failingStore{FeatureStore: flat, after: 2},
		store.NewFlat(ds),
	}
	tr, err := NewTrainer(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Fit(3)
	if !errors.Is(err, errInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if len(stats) != 0 {
		t.Fatalf("first epoch should have failed, got %d completed epochs", len(stats))
	}
	// The trainer must remain usable: a later epoch over healthy stores
	// (the failing store keeps failing, so re-running must fail fast again
	// rather than deadlock on leaked buffers or credits).
	if _, err := tr.TrainEpoch(1); !errors.Is(err, errInjected) {
		t.Fatalf("second epoch: want injected error, got %v", err)
	}
}

// TestPartitioningSchemeSharedWithSimulator pins the satellite invariant:
// the executing Trainer, the Union oracle, and the virtual-time simulators
// report the same replica/seed partitioning scheme.
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

	// Executed epochs report the same step count.
	ds := ddpDS(t)
	cfg := ddpCfg(3)
	tr, err := NewTrainer(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tr.TrainEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	nb := prep.NumBatches(len(ds.Train), cfg.BatchSize)
	if st.Steps != StepsFor(nb, cfg.Replicas) {
		t.Fatalf("executed steps %d != StepsFor(%d,%d)=%d", st.Steps, nb, cfg.Replicas, StepsFor(nb, cfg.Replicas))
	}
	if st.Batches != nb {
		t.Fatalf("executed %d batches, epoch has %d", st.Batches, nb)
	}

	// ShardSeeds must tile the permutation: chunk s*R+r of the global
	// schedule is segment s of replica r's shard.
	perm := prep.EpochPerm(ds.Train, 99)
	const b, R = 48, 3
	nb = prep.NumBatches(len(perm), b)
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

// TestTrainerStatsAccounting sanity-checks the executed epoch's accounting.
func TestTrainerStatsAccounting(t *testing.T) {
	ds := ddpDS(t)
	tr, err := NewTrainer(ds, ddpCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	st, err := tr.TrainEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replicas != 2 || len(st.PerReplica) != 2 {
		t.Fatalf("bad replica accounting: %+v", st)
	}
	if st.Loss <= 0 || st.Acc < 0 || st.Acc > 1 {
		t.Fatalf("implausible loss/acc: %+v", st)
	}
	if st.NodesSeen == 0 || st.EdgesSeen == 0 || st.Wall <= 0 {
		t.Fatalf("empty epoch accounting: %+v", st)
	}
	if f := st.SyncFraction(); f < 0 || f > 1 {
		t.Fatalf("sync fraction %v out of range", f)
	}
	// Replicas share one flat store by default, and training must have
	// gathered through it.
	if tr.FeatureStore(0) != tr.FeatureStore(1) {
		t.Fatal("default store not shared across replicas")
	}
	if tr.FeatureStore(0).Stats().Gathers == 0 {
		t.Fatal("no gathers recorded on the shared store")
	}
}

// TestBatchNormArchBroadcastsBuffers: GIN carries BatchNorm running
// statistics, which take no gradients and so are invisible to the gradient
// all-reduce. The trainer must broadcast the leader's buffers at each step
// (DDP broadcast_buffers semantics) so replicas stay identical in eval
// mode too — while parameters still match the union oracle bit for bit
// (training-mode BatchNorm normalizes with batch statistics, so running
// stats never feed gradients).
func TestBatchNormArchBroadcastsBuffers(t *testing.T) {
	ds := ddpDS(t)
	cfg := ddpCfg(2)
	cfg.Arch = "GIN"
	tr, err := NewTrainer(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Fit(2); err != nil {
		t.Fatal(err)
	}
	un, err := NewUnion(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := un.Fit(2); err != nil {
		t.Fatal(err)
	}
	assertParamsBitEqual(t, "GIN union vs leader", un.Model().Params(), tr.Model().Params())

	lead := tr.Model().(nn.BufferModel).StatBuffers()
	other := tr.reps[1].model.(nn.BufferModel).StatBuffers()
	if len(lead) == 0 || len(lead) != len(other) {
		t.Fatalf("expected matching BatchNorm buffer sets, got %d vs %d", len(lead), len(other))
	}
	moved := false
	for i := range lead {
		for j := range lead[i] {
			if lead[i][j] != other[i][j] {
				t.Fatalf("replica BatchNorm buffer %d diverges at %d: %v vs %v",
					i, j, lead[i][j], other[i][j])
			}
		}
		if i%2 == 0 { // running means start at zero; training must move them
			for _, v := range lead[i] {
				if v != 0 {
					moved = true
					break
				}
			}
		}
	}
	if !moved {
		t.Fatal("running means never updated — buffers were not exercised")
	}
}
