package prep

import (
	"sync"
	"testing"
	"time"

	"salient/internal/dataset"
	"salient/internal/sampler"
)

func testDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Load(dataset.Arxiv, 0.05)
	if err != nil {
		t.Fatalf("load dataset: %v", err)
	}
	return ds
}

func drain(t testing.TB, s *Stream) []*Batch {
	t.Helper()
	var got []*Batch
	for b := range s.C {
		got = append(got, b)
		b.Release()
	}
	s.Wait()
	return got
}

func TestSalientDeliversAllBatches(t *testing.T) {
	ds := testDataset(t)
	ex, err := NewSalient(ds, Options{
		Workers:   4,
		BatchSize: 64,
		Fanouts:   []int{5, 5},
		Sampler:   sampler.FastConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := ex.Run(ds.Train, 7)
	seen := make(map[int]bool)
	got := 0
	for b := range s.C {
		// Inspect before Release: afterwards the MFG belongs to the arena's
		// next occupant (and is nil on the released batch).
		if seen[b.Index] {
			t.Fatalf("duplicate batch index %d", b.Index)
		}
		seen[b.Index] = true
		if err := b.MFG.Validate(); err != nil {
			t.Fatalf("batch %d invalid MFG: %v", b.Index, err)
		}
		b.Release()
		if b.MFG != nil {
			t.Fatalf("batch %d still exposes an MFG after Release", b.Index)
		}
		got++
	}
	s.Wait()
	if want := NumBatches(len(ds.Train), 64); got != want {
		t.Fatalf("got %d batches, want %d", got, want)
	}
}

func TestSalientOrderedStreamIsSorted(t *testing.T) {
	ds := testDataset(t)
	ex, err := NewSalient(ds, Options{
		Workers:   4,
		InFlight:  4,
		BatchSize: 32,
		Fanouts:   []int{5, 5},
		Sampler:   sampler.FastConfig(),
		Ordered:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, ex.Run(ds.Train, 3))
	for i, b := range got {
		if b.Index != i {
			t.Fatalf("position %d has batch index %d", i, b.Index)
		}
	}
}

// TestSalientOrderedSlowConsumer exercises the credit window: a consumer
// that holds every batch until the stream would have wedged the old
// (window-less) design must still see all batches.
func TestSalientOrderedSlowConsumer(t *testing.T) {
	ds := testDataset(t)
	ex, err := NewSalient(ds, Options{
		Workers:   4,
		InFlight:  4,
		BatchSize: 16,
		Fanouts:   []int{3, 3},
		Sampler:   sampler.FastConfig(),
		Ordered:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := ex.Run(ds.Train, 11)
	count := 0
	var held []*Batch
	for b := range s.C {
		held = append(held, b)
		count++
		// Release in bursts, lagging behind arrival.
		if len(held) >= 3 {
			held[0].Release()
			held = held[1:]
		}
	}
	for _, b := range held {
		b.Release()
	}
	s.Wait()
	if want := NumBatches(len(ds.Train), 16); count != want {
		t.Fatalf("got %d batches, want %d", count, want)
	}
}

// TestSalientOrderedMaxHoldConsumer pins the hardest legal consumer: it
// permanently holds InFlight-1 unreleased batches while demanding the next
// in-order batch. Regression test for the credit-starvation deadlock where
// a higher-index batch could claim the last pinned buffer ahead of the
// emission cursor's batch.
func TestSalientOrderedMaxHoldConsumer(t *testing.T) {
	ds := testDataset(t)
	const inflight = 4
	ex, err := NewSalient(ds, Options{
		Workers:   4,
		InFlight:  inflight,
		BatchSize: 16,
		Fanouts:   []int{3, 3},
		Sampler:   sampler.FastConfig(),
		Ordered:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		s := ex.Run(ds.Train, 21)
		var held []*Batch
		n := 0
		for b := range s.C {
			n++
			held = append(held, b)
			if len(held) == inflight { // never exceed InFlight-1 while waiting
				held[0].Release()
				held = held[1:]
			}
		}
		for _, b := range held {
			b.Release()
		}
		s.Wait()
		done <- n
	}()
	select {
	case n := <-done:
		if want := NumBatches(len(ds.Train), 16); n != want {
			t.Fatalf("got %d batches, want %d", n, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ordered stream deadlocked with a max-hold consumer")
	}
}

func TestBatchContentDeterministicAcrossExecutors(t *testing.T) {
	ds := testDataset(t)
	mk := func(workers int, salient bool) map[int]string {
		opts := Options{
			Workers:   workers,
			BatchSize: 48,
			Fanouts:   []int{4, 4},
			Sampler:   sampler.FastConfig(),
		}
		var s *Stream
		if salient {
			ex, err := NewSalient(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			s = ex.Run(ds.Train, 99)
		} else {
			opts.Sampler = sampler.Config{
				IDMap: sampler.FastConfig().IDMap,
				Dedup: sampler.FastConfig().Dedup,
				Build: sampler.FastConfig().Build,
				Reuse: sampler.FastConfig().Reuse,
			}
			ex, err := NewPyG(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			s = ex.Run(ds.Train, 99)
		}
		sig := make(map[int]string)
		for b := range s.C {
			sig[b.Index] = batchSignature(b)
			b.Release()
		}
		s.Wait()
		return sig
	}

	ref := mk(1, true)
	for _, cfg := range []struct {
		workers int
		salient bool
	}{{4, true}, {2, true}, {3, false}} {
		got := mk(cfg.workers, cfg.salient)
		if len(got) != len(ref) {
			t.Fatalf("%+v: %d batches vs %d", cfg, len(got), len(ref))
		}
		for idx, sg := range ref {
			if got[idx] != sg {
				t.Fatalf("%+v: batch %d differs from 1-worker reference", cfg, idx)
			}
		}
	}
}

// batchSignature fingerprints a batch's seeds, MFG shape and staged bytes.
func batchSignature(b *Batch) string {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, s := range b.Seeds {
		mix(uint64(uint32(s)))
	}
	for i := range b.MFG.Blocks {
		blk := &b.MFG.Blocks[i]
		mix(uint64(blk.NumDst))
		mix(uint64(blk.NumSrc))
		for _, v := range blk.Src {
			mix(uint64(uint32(v)))
		}
	}
	for _, id := range b.MFG.NodeIDs {
		mix(uint64(uint32(id)))
	}
	for _, f := range b.Buf.H[:b.Buf.N*b.Buf.Dim] {
		mix(uint64(uint16(f)))
	}
	for _, l := range b.Buf.Labels {
		mix(uint64(uint32(l)))
	}
	return string([]byte{
		byte(h), byte(h >> 8), byte(h >> 16), byte(h >> 24),
		byte(h >> 32), byte(h >> 40), byte(h >> 48), byte(h >> 56),
	})
}

func TestPyGStreamOrderedAndComplete(t *testing.T) {
	ds := testDataset(t)
	ex, err := NewPyG(ds, Options{
		Workers:   3,
		BatchSize: 64,
		Fanouts:   []int{5, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, ex.Run(ds.Train, 5))
	want := NumBatches(len(ds.Train), 64)
	if len(got) != want {
		t.Fatalf("got %d batches, want %d", len(got), want)
	}
	for i, b := range got {
		if b.Index != i {
			t.Fatalf("PyG stream out of order at %d: index %d", i, b.Index)
		}
	}
}

func TestSlicedFeaturesMatchMaster(t *testing.T) {
	ds := testDataset(t)
	ex, err := NewSalient(ds, Options{
		Workers:   2,
		BatchSize: 32,
		Fanouts:   []int{4},
		Sampler:   sampler.FastConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := ex.Run(ds.Train, 42)
	for b := range s.C {
		for i, id := range b.MFG.NodeIDs {
			for j := 0; j < ds.FeatDim; j++ {
				want := ds.FeatHalf[int(id)*ds.FeatDim+j]
				got := b.Buf.H[i*ds.FeatDim+j]
				if want != got {
					t.Fatalf("batch %d row %d col %d: staged %v want %v", b.Index, i, j, got, want)
				}
			}
		}
		for i := 0; i < int(b.MFG.Batch); i++ {
			if b.Buf.Labels[i] != ds.Labels[b.MFG.NodeIDs[i]] {
				t.Fatalf("batch %d label %d mismatch", b.Index, i)
			}
		}
		b.Release()
	}
	s.Wait()
}

func TestBatchReleaseIdempotent(t *testing.T) {
	ds := testDataset(t)
	ex, err := NewSalient(ds, Options{
		Workers:   1,
		BatchSize: 16,
		Fanouts:   []int{3},
		Sampler:   sampler.FastConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := ex.Run(ds.Train[:64], 1)
	for b := range s.C {
		b.Release()
		b.Release() // second call must be a no-op, not a double Put
	}
	s.Wait()
	// A fresh epoch must still find all pool slots available.
	s = ex.Run(ds.Train[:64], 2)
	n := 0
	for b := range s.C {
		n++
		b.Release()
	}
	s.Wait()
	if n != NumBatches(64, 16) {
		t.Fatalf("pool corrupted after double release: got %d batches", n)
	}
}

func TestTransferBytesPositiveAndConsistent(t *testing.T) {
	ds := testDataset(t)
	ex, err := NewSalient(ds, Options{
		Workers:   1,
		BatchSize: 16,
		Fanouts:   []int{3, 3},
		Sampler:   sampler.FastConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := ex.Run(ds.Train[:64], 1)
	for b := range s.C {
		got := b.TransferBytes()
		var want int64 = b.Buf.Bytes()
		for i := range b.MFG.Blocks {
			want += int64(len(b.MFG.Blocks[i].Src))*4 + int64(len(b.MFG.Blocks[i].DstPtr))*4
		}
		if got != want || got <= 0 {
			t.Fatalf("TransferBytes = %d, want %d (>0)", got, want)
		}
		b.Release()
	}
	s.Wait()
}

func TestOptionsValidation(t *testing.T) {
	ds := testDataset(t)
	if _, err := NewSalient(ds, Options{BatchSize: 0, Fanouts: []int{5}}); err == nil {
		t.Fatal("expected error for zero batch size")
	}
	if _, err := NewSalient(ds, Options{BatchSize: 8}); err == nil {
		t.Fatal("expected error for empty fanouts")
	}
	if _, err := NewPyG(ds, Options{BatchSize: 0, Fanouts: []int{5}}); err == nil {
		t.Fatal("expected PyG error for zero batch size")
	}
}

// TestConcurrentEpochsShareNothing runs two epochs from the same executor
// back to back under the race detector's eye.
func TestSequentialEpochsIndependent(t *testing.T) {
	ds := testDataset(t)
	ex, err := NewSalient(ds, Options{
		Workers:   3,
		BatchSize: 32,
		Fanouts:   []int{4, 4},
		Sampler:   sampler.FastConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var sigs [2]map[int]string
	for e := 0; e < 2; e++ {
		sigs[e] = make(map[int]string)
		s := ex.Run(ds.Train, uint64(100+e))
		var mu sync.Mutex
		for b := range s.C {
			mu.Lock()
			sigs[e][b.Index] = batchSignature(b)
			mu.Unlock()
			b.Release()
		}
		s.Wait()
	}
	same := 0
	for idx, sg := range sigs[0] {
		if sigs[1][idx] == sg {
			same++
		}
	}
	if same == len(sigs[0]) {
		t.Fatal("different epoch seeds produced identical batches throughout")
	}
}

func TestWorkerStatsAccounting(t *testing.T) {
	ds := testDataset(t)
	for _, mk := range []struct {
		name string
		run  func() *Stream
	}{
		{"salient", func() *Stream {
			ex, err := NewSalient(ds, Options{
				Workers: 3, BatchSize: 32, Fanouts: []int{5, 5},
				Sampler: sampler.FastConfig(),
			})
			if err != nil {
				t.Fatal(err)
			}
			return ex.Run(ds.Train, 5)
		}},
		{"pyg", func() *Stream {
			ex, err := NewPyG(ds, Options{
				Workers: 3, BatchSize: 32, Fanouts: []int{5, 5},
			})
			if err != nil {
				t.Fatal(err)
			}
			return ex.Run(ds.Train, 5)
		}},
	} {
		s := mk.run()
		n := 0
		for b := range s.C {
			n++
			b.Release()
		}
		s.Wait()
		busy, batches := s.WorkerStats()
		if len(busy) != 3 || len(batches) != 3 {
			t.Fatalf("%s: stats for %d/%d workers, want 3", mk.name, len(busy), len(batches))
		}
		total := 0
		for w := range batches {
			total += batches[w]
			if batches[w] > 0 && busy[w] <= 0 {
				t.Fatalf("%s: worker %d did %d batches in zero time", mk.name, w, batches[w])
			}
		}
		if total != n {
			t.Fatalf("%s: workers account for %d of %d batches", mk.name, total, n)
		}
	}
}

// capturedBatch is a deep copy of a delivered batch's content, taken before
// Release recycles the pinned buffer.
type capturedBatch struct {
	global  int
	seeds   []int32
	nodeIDs []int32
	feat    []uint16
	labels  []int32
}

func capture(t testing.TB, s *Stream) map[int]capturedBatch {
	t.Helper()
	out := make(map[int]capturedBatch)
	for b := range s.C {
		if b.Err != nil {
			t.Fatalf("batch %d errored: %v", b.Index, b.Err)
		}
		feat := make([]uint16, b.Buf.N*b.Buf.Dim)
		for i, f := range b.Buf.H[:len(feat)] {
			feat[i] = uint16(f)
		}
		out[b.GlobalIndex] = capturedBatch{
			global:  b.GlobalIndex,
			seeds:   append([]int32(nil), b.Seeds...),
			nodeIDs: append([]int32(nil), b.MFG.NodeIDs...),
			feat:    feat,
			labels:  append([]int32(nil), b.Buf.Labels[:len(b.Seeds)]...),
		}
		b.Release()
	}
	s.Wait()
	return out
}

// TestStripedExecutorsReproduceGlobalBatches: R executors striped as
// (base=r, stride=R) over FixedOrder shards of one epoch permutation must
// prepare exactly the batches a sole executor prepares for the whole epoch
// — seeds, sampled MFG, staged features, and labels all bit-identical.
// This is the preparation-side invariant the data-parallel trainer
// (internal/train) is built on.
func TestStripedExecutorsReproduceGlobalBatches(t *testing.T) {
	ds := testDataset(t)
	const epochSeed = 42
	const R = 3
	base := Options{
		Workers:   2,
		BatchSize: 48,
		Fanouts:   []int{5, 3},
		Sampler:   sampler.FastConfig(),
		Ordered:   true,
	}

	ref, err := NewSalient(ds, base)
	if err != nil {
		t.Fatal(err)
	}
	want := capture(t, ref.Run(ds.Train, epochSeed))

	perm := EpochPerm(ds.Train, epochSeed)
	nb := NumBatches(len(perm), base.BatchSize)
	got := make(map[int]capturedBatch)
	for r := 0; r < R; r++ {
		var shard []int32
		for c := r; c < nb; c += R {
			lo, hi := c*base.BatchSize, (c+1)*base.BatchSize
			if hi > len(perm) {
				hi = len(perm)
			}
			shard = append(shard, perm[lo:hi]...)
		}
		opts := base
		opts.FixedOrder = true
		opts.IndexBase = r
		opts.IndexStride = R
		ex, err := NewSalient(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		for g, cb := range capture(t, ex.Run(shard, epochSeed)) {
			if g%R != r {
				t.Fatalf("replica %d produced global index %d", r, g)
			}
			got[g] = cb
		}
	}

	if len(got) != len(want) {
		t.Fatalf("striped executors produced %d batches, sole executor %d", len(got), len(want))
	}
	for g, w := range want {
		s, ok := got[g]
		if !ok {
			t.Fatalf("global batch %d missing from striped executors", g)
		}
		eqI32 := func(a, b []int32) bool {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		}
		if !eqI32(w.seeds, s.seeds) {
			t.Fatalf("global batch %d: seeds differ", g)
		}
		if !eqI32(w.nodeIDs, s.nodeIDs) {
			t.Fatalf("global batch %d: sampled MFG differs", g)
		}
		if !eqI32(w.labels, s.labels) {
			t.Fatalf("global batch %d: labels differ", g)
		}
		if len(w.feat) != len(s.feat) {
			t.Fatalf("global batch %d: staged %d vs %d feature halves", g, len(s.feat), len(w.feat))
		}
		for i := range w.feat {
			if w.feat[i] != s.feat[i] {
				t.Fatalf("global batch %d: staged features differ at %d", g, i)
			}
		}
	}
}
