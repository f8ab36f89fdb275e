package prep

import (
	"errors"
	"sync"
	"testing"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/half"
	"salient/internal/partition"
	"salient/internal/sampler"
	"salient/internal/slicing"
	"salient/internal/store"
)

// countingStore wraps a FeatureStore and counts (or injects failures into)
// its gathers.
type countingStore struct {
	store.FeatureStore
	mu     sync.Mutex
	calls  int
	failAt int // inject an error on calls >= failAt (0 = never)
}

var errInjected = errors.New("injected gather failure")

func (c *countingStore) Gather(dst *slicing.Pinned, nodeIDs []int32, batch int) error {
	c.mu.Lock()
	c.calls++
	n := c.calls
	c.mu.Unlock()
	if c.failAt > 0 && n >= c.failAt {
		return errInjected
	}
	return c.FeatureStore.Gather(dst, nodeIDs, batch)
}

func (c *countingStore) gathers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// TestExecutorsGatherExclusivelyThroughStore: every staged batch of both
// executors must come from a store Gather — the acceptance gate for the
// data-path refactor.
func TestExecutorsGatherExclusivelyThroughStore(t *testing.T) {
	ds := testDataset(t)
	want := NumBatches(len(ds.Train), 64)
	for name, mk := range map[string]func(*dataset.Dataset, Options) (interface {
		Run([]int32, uint64) *Stream
	}, error){
		"salient": func(ds *dataset.Dataset, o Options) (interface {
			Run([]int32, uint64) *Stream
		}, error) {
			return NewSalient(ds, o)
		},
		"pyg": func(ds *dataset.Dataset, o Options) (interface {
			Run([]int32, uint64) *Stream
		}, error) {
			return NewPyG(ds, o)
		},
	} {
		cs := &countingStore{FeatureStore: store.NewFlat(ds)}
		ex, err := mk(ds, Options{
			Workers: 3, BatchSize: 64, Fanouts: []int{5, 5},
			Sampler: sampler.FastConfig(), Store: cs,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := drain(t, ex.Run(ds.Train, 5))
		if len(got) != want {
			t.Fatalf("%s: %d batches, want %d", name, len(got), want)
		}
		if cs.gathers() != want {
			t.Fatalf("%s: %d store gathers for %d batches", name, cs.gathers(), want)
		}
	}
}

// TestShardedStoreBatchesBitIdentical: swapping the flat store for a
// sharded (or cached) one must not change a single staged byte.
func TestShardedStoreBatchesBitIdentical(t *testing.T) {
	ds := testDataset(t)
	run := func(st store.FeatureStore) map[int]string {
		ex, err := NewSalient(ds, Options{
			Workers: 3, BatchSize: 64, Fanouts: []int{5, 5},
			Sampler: sampler.FastConfig(), Ordered: true, Store: st,
		})
		if err != nil {
			t.Fatal(err)
		}
		sigs := make(map[int]string)
		s := ex.Run(ds.Train, 9)
		for b := range s.C {
			sigs[b.Index] = batchSignature(b)
			b.Release()
		}
		s.Wait()
		return sigs
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
	want := run(nil) // default flat store
	for name, st := range map[string]store.FeatureStore{"sharded": sharded, "cached": cached} {
		got := run(st)
		if len(got) != len(want) {
			t.Fatalf("%s: %d batches, want %d", name, len(got), len(want))
		}
		for idx, sig := range want {
			if got[idx] != sig {
				t.Fatalf("%s: batch %d content differs from flat store", name, idx)
			}
		}
	}
}

// TestGatherFailurePropagatesWithoutPanic: a failing store must surface as
// Batch.Err / Stream.Err on both executors — including through the ordered
// reorder stage — never as a worker panic or a stalled epoch.
func TestGatherFailurePropagatesWithoutPanic(t *testing.T) {
	ds := testDataset(t)
	for name, ordered := range map[string]bool{"unordered": false, "ordered": true} {
		cs := &countingStore{FeatureStore: store.NewFlat(ds), failAt: 3}
		ex, err := NewSalient(ds, Options{
			Workers: 3, BatchSize: 64, Fanouts: []int{5, 5},
			Sampler: sampler.FastConfig(), Ordered: ordered, Store: cs,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := ex.Run(ds.Train, 7)
		want := NumBatches(len(ds.Train), 64)
		var failed int
		got := 0
		for b := range s.C {
			got++
			if b.Err != nil {
				if !errors.Is(b.Err, errInjected) {
					t.Fatalf("%s: unexpected error %v", name, b.Err)
				}
				if b.Buf != nil {
					t.Fatalf("%s: errored batch carries a buffer", name)
				}
				failed++
			}
			b.Release()
		}
		s.Wait()
		if got != want {
			t.Fatalf("%s: %d batches delivered, want %d (errored batches must keep their index)", name, got, want)
		}
		if failed == 0 {
			t.Fatalf("%s: no errored batches despite failing store", name)
		}
		if !errors.Is(s.Err(), errInjected) {
			t.Fatalf("%s: Stream.Err = %v, want injected failure", name, s.Err())
		}
	}

	// PyG path: the consumer-side slice must also propagate.
	cs := &countingStore{FeatureStore: store.NewFlat(ds), failAt: 2}
	ex, err := NewPyG(ds, Options{Workers: 2, BatchSize: 64, Fanouts: []int{5, 5}, Store: cs})
	if err != nil {
		t.Fatal(err)
	}
	s := ex.Run(ds.Train, 7)
	var failed int
	for b := range s.C {
		if b.Err != nil {
			failed++
		}
		b.Release()
	}
	s.Wait()
	if failed == 0 || !errors.Is(s.Err(), errInjected) {
		t.Fatalf("pyg: failures not propagated (failed=%d, err=%v)", failed, s.Err())
	}
}

// TestStoreMismatchRejected: a store over the wrong dataset must be refused
// at construction, not at gather time.
func TestStoreMismatchRejected(t *testing.T) {
	ds := testDataset(t)
	other, err := dataset.Load(dataset.Arxiv, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{BatchSize: 64, Fanouts: []int{5, 5}, Store: store.NewFlat(other)}
	if _, err := NewSalient(ds, opts); err == nil {
		t.Fatal("salient accepted a store over a different dataset")
	}
	if _, err := NewPyG(ds, opts); err == nil {
		t.Fatal("pyg accepted a store over a different dataset")
	}
}
