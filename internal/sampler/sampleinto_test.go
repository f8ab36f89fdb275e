package sampler

import (
	"errors"
	"math"
	"testing"

	"salient/internal/graph"
	"salient/internal/mfg"
	"salient/internal/race"
	"salient/internal/rng"
)

// mfgEqual compares two MFGs field by field.
func mfgEqual(a, b *mfg.MFG) bool {
	if a.Batch != b.Batch || len(a.Blocks) != len(b.Blocks) || len(a.NodeIDs) != len(b.NodeIDs) {
		return false
	}
	for i := range a.NodeIDs {
		if a.NodeIDs[i] != b.NodeIDs[i] {
			return false
		}
	}
	for i := range a.Blocks {
		x, y := &a.Blocks[i], &b.Blocks[i]
		if x.NumDst != y.NumDst || x.NumSrc != y.NumSrc ||
			len(x.DstPtr) != len(y.DstPtr) || len(x.Src) != len(y.Src) {
			return false
		}
		for j := range x.DstPtr {
			if x.DstPtr[j] != y.DstPtr[j] {
				return false
			}
		}
		for j := range x.Src {
			if x.Src[j] != y.Src[j] {
				return false
			}
		}
	}
	return true
}

// naiveSample is the test-side reference for the sampling loop, written
// straight from the algorithm (paper §4.1) with none of the sampler's
// machinery: a Go map assigns local IDs in draw order, and a fresh picker of
// cfg's dedup kind draws each destination's neighbors, hop by hop from the
// innermost block outward.
func naiveSample(g graph.Topology, fanouts []int, cfg Config, r *rng.Rand, seeds []int32) *mfg.MFG {
	local := map[int32]int32{}
	var nodeIDs []int32
	localOf := func(v int32) int32 {
		l, ok := local[v]
		if !ok {
			l = int32(len(nodeIDs))
			local[v] = l
			nodeIDs = append(nodeIDs, v)
		}
		return l
	}
	for _, v := range seeds {
		localOf(v)
	}
	m := &mfg.MFG{Blocks: make([]mfg.Block, len(fanouts)), Batch: int32(len(seeds))}
	numDst := int32(len(seeds))
	for b := len(fanouts) - 1; b >= 0; b-- {
		blk := mfg.Block{DstPtr: make([]int32, numDst+1), NumDst: numDst}
		for v := int32(0); v < numDst; v++ {
			var drawn []int32
			newPicker(cfg.Dedup, ReuseFresh).Pick(r, g.Neighbors(nodeIDs[v]), fanouts[b],
				func(u int32) { drawn = append(drawn, u) })
			for _, u := range drawn {
				blk.Src = append(blk.Src, localOf(u))
			}
			blk.DstPtr[v+1] = int32(len(blk.Src))
		}
		blk.NumSrc = int32(len(nodeIDs))
		m.Blocks[b] = blk
		numDst = blk.NumSrc
	}
	m.NodeIDs = nodeIDs
	return m
}

// TestSamplingMatchesNaiveReference pins both entry points to the naive
// reference, bit for bit, for every design-space configuration: SampleInto
// into one output recycled across rounds (so buffer reuse leaves no trace
// of the previous occupant), and Sample under the config's Reuse policy.
// Each of the three draws from its own RNG stream, so matching over several
// rounds also pins identical RNG consumption.
func TestSamplingMatchesNaiveReference(t *testing.T) {
	g := testGraph(t)
	fanouts := []int{10, 4, 2} // 10 covers low-degree nodes' take-all path
	batches := [][]int32{seeds(32, 7), seeds(16, 11), seeds(48, 5)}
	for _, cfg := range Enumerate() {
		into, sample := New(g, fanouts, cfg), New(g, fanouts, cfg)
		rRef, rInto, rSample := rng.New(99), rng.New(99), rng.New(99)
		var out mfg.MFG
		for round, sds := range batches {
			want := naiveSample(g, fanouts, cfg, rRef, sds)
			if err := into.SampleInto(rInto, sds, &out); err != nil {
				t.Fatalf("%v round %d: SampleInto: %v", cfg, round, err)
			}
			if err := out.Validate(); err != nil {
				t.Fatalf("%v round %d: invalid MFG: %v", cfg, round, err)
			}
			if !mfgEqual(want, &out) {
				t.Fatalf("%v round %d: SampleInto differs from the naive reference", cfg, round)
			}
			if !mfgEqual(want, sample.Sample(rSample, sds)) {
				t.Fatalf("%v round %d: Sample differs from the naive reference", cfg, round)
			}
		}
	}
}

// TestSampleIntoSeedErrors: invalid seed sets come back as *SeedError with
// the offending seed identified, instead of the panic Sample raises.
func TestSampleIntoSeedErrors(t *testing.T) {
	g := testGraph(t)
	s := New(g, []int{4, 4}, FastConfig())
	var out mfg.MFG

	err := s.SampleInto(rng.New(1), []int32{3, g.N + 5}, &out)
	var se *SeedError
	if !errors.As(err, &se) {
		t.Fatalf("out-of-range seed: got %v, want *SeedError", err)
	}
	if se.Dup || se.Seed != g.N+5 || se.Index != 1 {
		t.Fatalf("out-of-range SeedError = %+v", se)
	}

	err = s.SampleInto(rng.New(1), []int32{3, 7, 3}, &out)
	if !errors.As(err, &se) {
		t.Fatalf("duplicate seed: got %v, want *SeedError", err)
	}
	if !se.Dup || se.Seed != 3 || se.Index != 2 {
		t.Fatalf("duplicate SeedError = %+v", se)
	}

	// The sampler must remain usable after a rejected batch.
	if err := s.SampleInto(rng.New(2), seeds(8, 13), &out); err != nil {
		t.Fatalf("sampler unusable after seed error: %v", err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("post-error MFG invalid: %v", err)
	}
}

// TestSampleIntoSteadyStateAllocs pins the tentpole property at the sampler
// level: once the output MFG's buffers have grown to the batch's
// neighborhood, SampleInto allocates nothing.
func TestSampleIntoSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race")
	}
	g := testGraph(t)
	s := New(g, []int{10, 5}, FastConfig())
	sds := seeds(64, 7)
	r := rng.New(1)
	var out mfg.MFG
	// Warm up: grow the output and scratch buffers to this batch's footprint.
	for i := 0; i < 5; i++ {
		r.Reseed(uint64(i))
		if err := s.SampleInto(r, sds, &out); err != nil {
			t.Fatal(err)
		}
	}
	// Reseeding per run makes every measured iteration draw the identical
	// sample, so buffer high-water marks cannot move mid-measurement.
	allocs := testing.AllocsPerRun(100, func() {
		r.Reseed(3)
		if err := s.SampleInto(r, sds, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SampleInto allocates %.1f objects/batch, want 0", allocs)
	}
}

// TestSampleReuseAxisGovernsAllocation: Sample applies the Reuse axis
// through the buffers it hands SampleInto, so for every (IDMap, Dedup,
// Build) point the steady-state allocation count is non-increasing along
// Fresh → PooledMaps → PooledAll, and the tuned configuration allocates
// nothing.
func TestSampleReuseAxisGovernsAllocation(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race")
	}
	g := testGraph(t)
	sds := seeds(64, 7)
	allocs := func(cfg Config) float64 {
		s := New(g, []int{10, 5}, cfg)
		r := rng.New(1)
		for i := 0; i < 5; i++ {
			r.Reseed(uint64(i))
			s.Sample(r, sds)
		}
		// Reseeding per run draws the identical sample every iteration, so
		// buffer high-water marks cannot move mid-measurement.
		return testing.AllocsPerRun(20, func() {
			r.Reseed(3)
			s.Sample(r, sds)
		})
	}
	for _, cfg := range Enumerate() {
		if cfg.Reuse != ReuseFresh {
			continue
		}
		prev := math.Inf(1)
		for ru := ReuseFresh; ru < numReuseKinds; ru++ {
			cfg.Reuse = ru
			a := allocs(cfg)
			if a > prev {
				t.Errorf("%v: %.1f allocs/batch, more than the previous Reuse kind's %.1f", cfg, a, prev)
			}
			prev = a
		}
	}
	if a := allocs(FastConfig()); a != 0 {
		t.Fatalf("steady-state Sample(FastConfig) allocates %.1f objects/batch, want 0", a)
	}
}
