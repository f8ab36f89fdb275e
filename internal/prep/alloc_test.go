package prep

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"salient/internal/half"
	"salient/internal/mfg"
	"salient/internal/race"
	"salient/internal/rng"
	"salient/internal/sampler"
	"salient/internal/slicing"
	"salient/internal/store"
)

// TestPipelineSteadyStateAllocs pins the tentpole property end-to-end at the
// kernel level: the composed pooled path — sample into a recycled MFG, then
// gather features and labels through the store into a recycled pinned buffer
// (exactly what a Salient worker does inside one arena) — performs zero heap
// allocations per batch after warm-up, at every storage precision.
func TestPipelineSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race")
	}
	ds := testDataset(t)
	sm := sampler.New(ds.G, []int{10, 5}, sampler.FastConfig())
	seeds := ds.Train[:64]
	r := rng.New(1)
	for _, prec := range []half.Precision{half.FP16, half.FP32, half.Int8} {
		st := store.NewFlatPrec(ds, prec)
		var m mfg.MFG
		buf := slicing.NewPinned(MaxRowsEstimate(64, []int{10, 5}, int(ds.G.N)), ds.FeatDim, 64)
		prepareOnce := func(seed uint64) {
			r.Reseed(seed) // identical draw per run: high-water marks cannot move
			if err := sm.SampleInto(r, seeds, &m); err != nil {
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
			t.Fatalf("%s: steady-state sample+gather allocates %.1f objects/batch, want 0", prec, allocs)
		}
	}
}

// epochAllocBudget is the whole-executor allocation ceiling per prepared
// batch in steady state, enforced here and in the CI alloc-budget job. The
// pooled kernels themselves allocate zero (TestPipelineSteadyStateAllocs);
// what remains per batch is the Batch header (kept off the arena so Release
// stays idempotent) plus amortized per-epoch machinery — against roughly 40
// allocations per batch on the pre-arena data path.
const epochAllocBudget = 8.0

// TestEpochAllocBudget runs real concurrent epochs through the Salient
// executor and asserts the steady-state allocation rate per batch stays
// within epochAllocBudget.
func TestEpochAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race")
	}
	ds := testDataset(t)
	ex, err := NewSalient(ds, Options{
		Workers:   2,
		BatchSize: 64,
		Fanouts:   []int{10, 5},
		Sampler:   sampler.FastConfig(),
		Ordered:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	epoch := func(seed uint64) int {
		n := 0
		s := ex.Run(ds.Train, seed)
		for b := range s.C {
			if b.Err != nil {
				t.Fatal(b.Err)
			}
			n++
			b.Release()
		}
		s.Wait()
		return n
	}
	// Warm up: grow every arena and sampler to its steady footprint.
	for e := 0; e < 3; e++ {
		epoch(uint64(e))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	batches := 0
	const epochs = 3
	for e := 0; e < epochs; e++ {
		batches += epoch(uint64(100 + e))
	}
	runtime.ReadMemStats(&after)
	perBatch := float64(after.Mallocs-before.Mallocs) / float64(batches)
	t.Logf("%d batches over %d epochs: %.2f allocs/batch (budget %.0f)",
		batches, epochs, perBatch, epochAllocBudget)
	if perBatch > epochAllocBudget {
		t.Fatalf("steady-state executor allocates %.2f objects/batch, budget %.0f", perBatch, epochAllocBudget)
	}
}

// TestBadSeedsSurfaceAsBatchErr: seed lists the sampler rejects must come
// back as a typed *sampler.SeedError on Batch.Err (and Stream.Err), not as
// a panic inside an executor worker goroutine — errored batches keep their
// epoch index, carry no MFG or buffer, still release their arena, and the
// errored epoch leaves no goroutine behind.
func TestBadSeedsSurfaceAsBatchErr(t *testing.T) {
	ds := testDataset(t)
	base := runtime.NumGoroutine()
	ex, err := NewSalient(ds, Options{
		Workers:   2,
		BatchSize: 16,
		Fanouts:   []int{3, 3},
		Sampler:   sampler.FastConfig(),
		Ordered:   true,
		// FixedOrder keeps the mangled seed positions where the test puts
		// them (a shuffled duplicate pair could land in different batches).
		FixedOrder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, mangle := range map[string]func([]int32){
		"out-of-range": func(s []int32) { s[20] = ds.G.N + 7 },
		"duplicate":    func(s []int32) { s[20] = s[21] },
	} {
		seeds := append([]int32(nil), ds.Train[:64]...)
		mangle(seeds)
		s := ex.Run(seeds, 3)
		var failed, total int
		for b := range s.C {
			total++
			if b.Err != nil {
				var se *sampler.SeedError
				if !errors.As(b.Err, &se) {
					t.Fatalf("%s: Batch.Err = %v, want *sampler.SeedError", name, b.Err)
				}
				if b.MFG != nil || b.Buf != nil {
					t.Fatalf("%s: errored batch carries MFG/buffer", name)
				}
				failed++
			}
			b.Release()
		}
		s.Wait()
		if want := NumBatches(64, 16); total != want {
			t.Fatalf("%s: delivered %d batches, want %d (errored batches must keep their index)", name, total, want)
		}
		if failed == 0 {
			t.Fatalf("%s: no errored batches despite invalid seeds", name)
		}
		var se *sampler.SeedError
		if !errors.As(s.Err(), &se) {
			t.Fatalf("%s: Stream.Err = %v, want *sampler.SeedError", name, s.Err())
		}
		// The executor must remain fully usable after a rejected epoch.
		if got, want := ex.arenas.idle(), ex.arenas.size(); got != want {
			t.Fatalf("%s: errored epoch leaked arenas: %d of %d free", name, got, want)
		}
		assertGoroutinesSettle(t, base)
	}
}

// assertGoroutinesSettle fails unless the goroutine count returns to base
// within 2 s: every worker, reorder stage and stripe goroutine a drained
// epoch started has exited. Exits finish asynchronously after their
// WaitGroup signals, so the count is polled.
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

// TestArenaLeakAndDoubleRelease: under both executors, a fully drained
// epoch must return every arena to the pool and stop every goroutine it
// started, and releasing a batch twice must not double-free its arena (the
// second call is a no-op even though the arena may already be back in
// circulation under a new batch).
func TestArenaLeakAndDoubleRelease(t *testing.T) {
	ds := testDataset(t)
	for _, tc := range []struct {
		name         string
		pyg, ordered bool
	}{{"salient", false, false}, {"salient-ordered", false, true}, {"pyg", true, false}} {
		base := runtime.NumGoroutine()
		opts := Options{Workers: 3, BatchSize: 32, Fanouts: []int{4, 4}, Sampler: sampler.FastConfig(), Ordered: tc.ordered}
		var run func([]int32, uint64) *Stream
		var pool *arenaPool
		if tc.pyg {
			ex, err := NewPyG(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			run, pool = ex.Run, ex.arenas
		} else {
			ex, err := NewSalient(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			run, pool = ex.Run, ex.arenas
		}
		if got, want := pool.idle(), pool.size(); got != want {
			t.Fatalf("%s: fresh executor has %d of %d arenas free", tc.name, got, want)
		}
		s := run(ds.Train, 7)
		var last *Batch
		for b := range s.C {
			b.Release()
			b.Release() // idempotent: must not return the arena twice
			last = b
		}
		s.Wait()
		if got, want := pool.idle(), pool.size(); got != want {
			t.Fatalf("%s: drained epoch leaked arenas: %d of %d free", tc.name, got, want)
		}
		if last.ar != nil || last.Buf != nil {
			t.Fatalf("%s: released batch still references its arena", tc.name)
		}
		assertGoroutinesSettle(t, base)
	}

	// The pool itself guards against overflow, the double-free symptom.
	p := newArenaPool(1, 4, 2, 4)
	a := p.get()
	p.put(a)
	defer func() {
		if recover() == nil {
			t.Fatal("arena pool overflow did not panic")
		}
	}()
	p.put(a)
}

// TestFusedPipelineSteadyStateAllocs is TestPipelineSteadyStateAllocs for
// the fused data path: sample into a recycled MFG, then gather+aggregate
// through the store straight into a recycled Fused target — what a Salient
// worker does per batch under Options.Fused. Zero heap allocations per batch
// after warm-up, at every storage precision.
func TestFusedPipelineSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race")
	}
	ds := testDataset(t)
	sm := sampler.New(ds.G, []int{10, 5}, sampler.FastConfig())
	seeds := ds.Train[:64]
	r := rng.New(1)
	for _, prec := range []half.Precision{half.FP16, half.FP32, half.Int8} {
		st := store.NewFlatPrec(ds, prec)
		var m mfg.MFG
		var fused slicing.Fused
		prepareOnce := func(seed uint64) {
			r.Reseed(seed) // identical draw per run: high-water marks cannot move
			if err := sm.SampleInto(r, seeds, &m); err != nil {
				t.Fatal(err)
			}
			if err := st.GatherAggregate(&fused, m.NodeIDs, &m.Blocks[0], len(seeds), slicing.AggMean); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			prepareOnce(uint64(i))
		}
		allocs := testing.AllocsPerRun(100, func() { prepareOnce(3) })
		if allocs != 0 {
			t.Fatalf("%s: steady-state sample+fused-gather allocates %.1f objects/batch, want 0", prec, allocs)
		}
	}
}
