package prep

import (
	"testing"

	"salient/internal/graph"
	"salient/internal/half"
	"salient/internal/mfg"
	"salient/internal/race"
	"salient/internal/rng"
	"salient/internal/sampler"
	"salient/internal/slicing"
	"salient/internal/store"
)

// snapBatch is a deep copy of everything a batch stages, for cross-run
// comparison after the arena has been recycled.
type snapBatch struct {
	index  int
	seeds  []int32
	m      *mfg.MFG
	feat   []half.Float16
	labels []int32
}

// drainEpoch runs one ordered epoch and deep-copies every batch.
func drainEpoch(t *testing.T, ex *Salient, seeds []int32, epochSeed uint64) []snapBatch {
	t.Helper()
	var out []snapBatch
	s := ex.Run(seeds, epochSeed)
	for b := range s.C {
		if b.Err != nil {
			t.Fatal(b.Err)
		}
		out = append(out, snapBatch{
			index:  b.Index,
			seeds:  append([]int32(nil), b.Seeds...),
			m:      b.MFG.Clone(),
			feat:   append([]half.Float16(nil), b.Buf.H...),
			labels: append([]int32(nil), b.Buf.Labels...),
		})
		b.Release()
	}
	s.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameBatches(t *testing.T, name string, a, b []snapBatch) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d batches", name, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.index != y.index {
			t.Fatalf("%s: batch %d index %d vs %d", name, i, x.index, y.index)
		}
		for j := range x.seeds {
			if x.seeds[j] != y.seeds[j] {
				t.Fatalf("%s: batch %d seed %d differs", name, i, j)
			}
		}
		if len(x.m.NodeIDs) != len(y.m.NodeIDs) {
			t.Fatalf("%s: batch %d node count %d vs %d", name, i, len(x.m.NodeIDs), len(y.m.NodeIDs))
		}
		for j := range x.m.NodeIDs {
			if x.m.NodeIDs[j] != y.m.NodeIDs[j] {
				t.Fatalf("%s: batch %d node %d differs", name, i, j)
			}
		}
		for bi := range x.m.Blocks {
			xb, yb := &x.m.Blocks[bi], &y.m.Blocks[bi]
			if xb.NumDst != yb.NumDst || xb.NumSrc != yb.NumSrc ||
				len(xb.Src) != len(yb.Src) || len(xb.DstPtr) != len(yb.DstPtr) {
				t.Fatalf("%s: batch %d block %d shape differs", name, i, bi)
			}
			for j := range xb.Src {
				if xb.Src[j] != yb.Src[j] {
					t.Fatalf("%s: batch %d block %d src %d differs", name, i, bi, j)
				}
			}
			for j := range xb.DstPtr {
				if xb.DstPtr[j] != yb.DstPtr[j] {
					t.Fatalf("%s: batch %d block %d dstptr %d differs", name, i, bi, j)
				}
			}
		}
		if len(x.feat) != len(y.feat) || len(x.labels) != len(y.labels) {
			t.Fatalf("%s: batch %d staged sizes differ", name, i)
		}
		for j := range x.feat {
			if x.feat[j] != y.feat[j] {
				t.Fatalf("%s: batch %d feature scalar %d differs", name, i, j)
			}
		}
		for j := range x.labels {
			if x.labels[j] != y.labels[j] {
				t.Fatalf("%s: batch %d label %d differs", name, i, j)
			}
		}
	}
}

// TestDynamicZeroDeltaBitIdenticalBatches is the tentpole bit-identity
// oracle at the executor level: an epoch prepared against a Dynamic graph
// with zero applied deltas stages byte-for-byte the batches the static-CSR
// baseline stages, for both the fast and the baseline sampler configs.
func TestDynamicZeroDeltaBitIdenticalBatches(t *testing.T) {
	ds := testDataset(t)
	for name, cfg := range map[string]sampler.Config{
		"fast":     sampler.FastConfig(),
		"baseline": sampler.BaselineConfig(),
	} {
		opts := Options{Workers: 2, BatchSize: 64, Fanouts: []int{10, 5}, Sampler: cfg, Ordered: true}
		exStatic, err := NewSalient(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dynOpts := opts
		dynOpts.Graph = dyn
		exDyn, err := NewSalient(ds, dynOpts)
		if err != nil {
			t.Fatal(err)
		}
		for epoch := uint64(1); epoch <= 2; epoch++ {
			want := drainEpoch(t, exStatic, ds.Train, epoch)
			got := drainEpoch(t, exDyn, ds.Train, epoch)
			sameBatches(t, name, want, got)
		}
	}
}

// TestEpochPinsOneSnapshot: updates applied while an epoch is in flight
// must not change that epoch's topology — the stream keeps its pinned
// version, and only the NEXT Run adopts the new snapshot (whose version the
// stream reports).
func TestEpochPinsOneSnapshot(t *testing.T) {
	ds := testDataset(t)
	dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewSalient(ds, Options{
		Workers: 2, BatchSize: 64, Fanouts: []int{10, 5},
		Sampler: sampler.FastConfig(), Ordered: true, Graph: dyn,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := ex.Run(ds.Train, 1)
	if v := s.Graph.Version(); v != 0 {
		t.Fatalf("first epoch pinned version %d, want 0", v)
	}
	applied := false
	for b := range s.C {
		if b.Err != nil {
			t.Fatal(b.Err)
		}
		if !applied {
			// Mid-epoch churn (a node addition always advances the
			// version — an arbitrary edge might already exist and be
			// dropped by set semantics): must be invisible to this stream.
			if _, err := dyn.AddNodes(1); err != nil {
				t.Fatal(err)
			}
			applied = true
		}
		b.Release()
	}
	s.Wait()
	if s.Graph.Version() != 0 {
		t.Fatal("in-flight epoch adopted a mid-epoch update")
	}
	s2 := ex.Run(ds.Train, 2)
	if v := s2.Graph.Version(); v != 1 {
		t.Fatalf("next epoch pinned version %d, want 1", v)
	}
	for b := range s2.C {
		if b.Err != nil {
			t.Fatal(b.Err)
		}
		b.Release()
	}
	s2.Wait()
}

// TestDynamicNodeGrowthFeedsExecutor: nodes added with feature rows through
// an Appendable store become sampleable seeds in the next epoch.
func TestDynamicNodeGrowthFeedsExecutor(t *testing.T) {
	ds := testDataset(t)
	dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewFlat(ds)
	ex, err := NewSalient(ds, Options{
		Workers: 2, BatchSize: 8, Fanouts: []int{3, 3},
		Sampler: sampler.FastConfig(), Ordered: true, Graph: dyn, Store: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float32, ds.FeatDim)
	for i := range row {
		row[i] = 0.25
	}
	first, err := st.AppendRows(row, []int32{1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := dyn.AddNodes(1)
	if err != nil {
		t.Fatal(err)
	}
	if id != first {
		t.Fatalf("graph node %d, store row %d", id, first)
	}
	if _, err := dyn.AddEdges([]int32{id, 0}, []int32{0, id}); err != nil {
		t.Fatal(err)
	}
	seeds := append(append([]int32(nil), ds.Train[:15]...), id)
	s := ex.Run(seeds, 3)
	sawNew := false
	for b := range s.C {
		if b.Err != nil {
			t.Fatal(b.Err)
		}
		for i, sd := range b.Seeds {
			if sd == id {
				sawNew = true
				if got := b.Buf.Labels[i]; got != 1 {
					t.Fatalf("new node staged label %d, want 1", got)
				}
			}
		}
		b.Release()
	}
	s.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawNew {
		t.Fatal("new node never appeared as a seed")
	}
}

// TestSnapshotSteadyStateAllocs extends the zero-allocation pin to the
// dynamic path: sample+gather over a CHURNED snapshot (overlay in play)
// allocates nothing per batch at steady state, and adopting a new snapshot
// via Retarget does not disturb the pooled scratch.
func TestSnapshotSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race")
	}
	ds := testDataset(t)
	dyn, err := graph.NewDynamic(ds.G, graph.DynamicOptions{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Churn some edges so the snapshot actually carries an overlay.
	src := make([]int32, 64)
	dst := make([]int32, 64)
	r := rng.New(7)
	for i := range src {
		src[i] = int32(r.Intn(int(ds.G.N)))
		dst[i] = int32(r.Intn(int(ds.G.N)))
	}
	if _, err := dyn.AddEdges(src, dst); err != nil {
		t.Fatal(err)
	}
	snap := dyn.Snapshot()
	if snap.Version() == 0 {
		t.Fatal("expected a churned snapshot")
	}

	st := store.NewFlat(ds)
	sm := sampler.New(ds.G, []int{10, 5}, sampler.FastConfig())
	sm.Retarget(snap)
	seeds := ds.Train[:64]
	rr := rng.New(1)
	var m mfg.MFG
	buf := slicing.NewPinned(MaxRowsEstimate(64, []int{10, 5}, int(snap.NumNodes())), ds.FeatDim, 64)

	prepareOnce := func(seed uint64) {
		rr.Reseed(seed)
		if err := sm.SampleInto(rr, seeds, &m); err != nil {
			t.Fatal(err)
		}
		if err := st.Gather(buf, m.NodeIDs, len(seeds)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		prepareOnce(uint64(i))
	}
	allocs := testing.AllocsPerRun(100, func() { prepareOnce(3) })
	if allocs != 0 {
		t.Fatalf("steady-state sample+gather on a snapshot allocates %.1f objects/batch, want 0", allocs)
	}
	// Re-pinning the same snapshot between batches stays free too.
	allocs = testing.AllocsPerRun(100, func() {
		sm.Retarget(dyn.Snapshot())
		prepareOnce(4)
	})
	if allocs != 0 {
		t.Fatalf("steady-state re-pin+sample+gather allocates %.1f objects/batch, want 0", allocs)
	}
}
