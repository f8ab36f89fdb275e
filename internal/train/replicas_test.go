package train

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"salient/internal/cache"
	"salient/internal/ddp"
	"salient/internal/half"
	"salient/internal/nn"
	"salient/internal/partition"
	"salient/internal/prep"
	"salient/internal/slicing"
	"salient/internal/store"
)

// ddpCfg is smallCfg on R replicas with 64-seed batches, so an epoch has
// enough steps to exercise the barrier.
func ddpCfg(replicas int) Config {
	c := smallCfg()
	c.BatchSize = 64
	c.Replicas = replicas
	return c
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
// finish with parameters bit-identical to the serial Union oracle. At R = 1
// the oracle is plain serial training (one batch per step, its gradient
// copied through the stash), so the barrier loop must also reproduce it,
// loss and accuracy included.
func TestTrainerMatchesUnionBitForBit(t *testing.T) {
	ds := smallDS(t)
	for _, R := range []int{1, 2, 4} {
		cfg := ddpCfg(R)
		tr, err := New(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tstats, err := tr.Fit(2)
		if err != nil {
			t.Fatal(err)
		}
		un, err := NewUnion(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ustats, err := un.Fit(2)
		if err != nil {
			t.Fatal(err)
		}
		assertParamsBitEqual(t, "union vs leader", un.Model().Params(), tr.Model.Params())
		// And every replica must agree with the leader, bit for bit.
		for r := 1; r < R; r++ {
			assertParamsBitEqual(t, "leader vs replica", tr.Model.Params(), tr.reps[r].model.Params())
		}
		// Loss sums run in replica order here and in batch order in the
		// oracle, so the means agree bit for bit only when R = 1.
		if R > 1 {
			continue
		}
		for e := range tstats {
			if tstats[e].Loss != ustats[e].Loss || tstats[e].Acc != ustats[e].Acc {
				t.Fatalf("R=1 epoch %d stats diverge: trainer (%v,%v) vs union (%v,%v)",
					e, tstats[e].Loss, tstats[e].Acc, ustats[e].Loss, ustats[e].Acc)
			}
		}
	}
}

// TestTrainerPartialFinalStepMatchesUnion picks a batch size that leaves
// the final step short of replicas, exercising the uneven-input join:
// idle replicas receive the participants' averaged gradient and step in
// lockstep, so the bit-identity survives nb % R != 0.
func TestTrainerPartialFinalStepMatchesUnion(t *testing.T) {
	ds := smallDS(t)
	const R = 4
	cfg := ddpCfg(R)
	cfg.BatchSize = len(ds.Train)/5 + 1 // nb = 5 -> final step has 1 participant
	nb := prep.NumBatches(len(ds.Train), cfg.BatchSize)
	if nb%R == 0 {
		t.Fatalf("test needs a partial final step, got nb=%d divisible by %d", nb, R)
	}

	tr, err := New(ds, cfg)
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
	assertParamsBitEqual(t, "partial-step union vs leader", un.Model().Params(), tr.Model.Params())
	for r := 1; r < R; r++ {
		assertParamsBitEqual(t, "partial-step replicas", tr.Model.Params(), tr.reps[r].model.Params())
	}
}

// TestTrainerDeterministicAcrossReruns: concurrent replica scheduling must
// never leak into results — two runs with the same seed agree bit for bit.
func TestTrainerDeterministicAcrossReruns(t *testing.T) {
	ds := smallDS(t)
	run := func() ([]EpochStats, []*nn.Param) {
		tr, err := New(ds, ddpCfg(4))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := tr.Fit(2)
		if err != nil {
			t.Fatal(err)
		}
		return stats, tr.Model.Params()
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
	ds := smallDS(t)
	want, err := New(ds, ddpCfg(2))
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
	got, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Fit(2); err != nil {
		t.Fatal(err)
	}
	assertParamsBitEqual(t, "per-replica stores", want.Model.Params(), got.Model.Params())
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
	ds := smallDS(t)
	cfg := ddpCfg(3)
	flat := store.NewFlat(ds)
	cfg.Stores = []store.FeatureStore{
		store.NewFlat(ds),
		&failingStore{FeatureStore: flat, after: 2},
		store.NewFlat(ds),
	}
	tr, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	stats, err := tr.Fit(3)
	if !errors.Is(err, errInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if len(stats) != 0 {
		t.Fatalf("first epoch should have failed, got %d completed epochs", len(stats))
	}
	assertGoroutinesSettle(t, base)
	// The trainer must remain usable: a later epoch over healthy stores
	// (the failing store keeps failing, so re-running must fail fast again
	// rather than deadlock on leaked buffers or credits).
	if _, err := tr.TrainEpoch(1); !errors.Is(err, errInjected) {
		t.Fatalf("second epoch: want injected error, got %v", err)
	}
}

// assertGoroutinesSettle fails unless the goroutine count returns to base:
// every replica goroutine, prep worker and reorder stage an epoch started
// must have exited once TrainEpoch returns. Exits finish asynchronously
// after their WaitGroup signals, so the count is polled briefly first.
func assertGoroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after the epoch, %d before:\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTrainEpochLeavesNoGoroutines: a clean epoch, single- or multi-replica,
// stops everything it started.
func TestTrainEpochLeavesNoGoroutines(t *testing.T) {
	ds := smallDS(t)
	for _, R := range []int{1, 3} {
		tr, err := New(ds, ddpCfg(R))
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		if _, err := tr.TrainEpoch(0); err != nil {
			t.Fatal(err)
		}
		assertGoroutinesSettle(t, base)
	}
}

// TestExecutedStepsFollowDDPScheme: executed epochs report the step count
// of the replica/seed partitioning scheme the simulators use
// (ddp.TestPartitioningSchemeSharedWithSimulator checks the simulator side).
func TestExecutedStepsFollowDDPScheme(t *testing.T) {
	ds := smallDS(t)
	cfg := ddpCfg(3)
	tr, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tr.TrainEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	nb := prep.NumBatches(len(ds.Train), cfg.BatchSize)
	if st.Steps != ddp.StepsFor(nb, cfg.Replicas) {
		t.Fatalf("executed steps %d != StepsFor(%d,%d)=%d", st.Steps, nb, cfg.Replicas, ddp.StepsFor(nb, cfg.Replicas))
	}
	if st.Batches != nb {
		t.Fatalf("executed %d batches, epoch has %d", st.Batches, nb)
	}
}

// TestTrainerStatsAccounting sanity-checks the executed epoch's accounting.
func TestTrainerStatsAccounting(t *testing.T) {
	ds := smallDS(t)
	tr, err := New(ds, ddpCfg(2))
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
	if tr.reps[0].store != tr.reps[1].store {
		t.Fatal("default store not shared across replicas")
	}
	if tr.FeatureStore().Stats().Gathers == 0 {
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
	ds := smallDS(t)
	cfg := ddpCfg(2)
	cfg.Arch = "GIN"
	tr, err := New(ds, cfg)
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
	assertParamsBitEqual(t, "GIN union vs leader", un.Model().Params(), tr.Model.Params())

	lead := tr.Model.(nn.BufferModel).StatBuffers()
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
