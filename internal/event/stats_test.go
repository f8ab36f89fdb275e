package event

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"salient/internal/race"
)

func TestHistEmpty(t *testing.T) {
	var h Hist
	s := h.Summarize()
	if s.Count != 0 || s.Mean != 0 || s.P50 != 0 || s.P99 != 0 || s.Max != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
	if size := unsafe.Sizeof(h.counts); size > 32<<10 {
		t.Fatalf("bucket array is %d bytes, above 32 KB", size)
	}
}

func TestHistQuantilesExactOnSmallIntegers(t *testing.T) {
	var h Hist
	// 1..100 in scrambled order; integers below 128 sit on bucket lower
	// bounds, so nearest-rank quantiles are exact.
	for i := 0; i < 100; i++ {
		h.Add(float64((i*37)%100 + 1))
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1.0, 100}, {0, 1}} {
		if got := h.Quantile(c.p); got != c.want {
			t.Errorf("p%g = %v, want %v", 100*c.p, got, c.want)
		}
	}
	if got := h.Max(); got != 100 {
		t.Errorf("max = %v, want 100", got)
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %v, want 50.5", got)
	}
	for v := 0.0; v < 128; v++ {
		var one Hist
		one.Add(v)
		one.Add(1000)
		if got := one.Quantile(0); got != v {
			t.Fatalf("integer %v reads back as %v", v, got)
		}
	}
}

// The next three tests keep the names of the Recorder and Window checks that
// Hist took over when it replaced both types.

func TestRecorderInterleavedAddAndQuantile(t *testing.T) {
	// Quantile reads between Adds must observe every sample added so far.
	var h Hist
	h.Add(3)
	h.Add(1)
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("p50 of {1,3} = %v, want 1", got)
	}
	h.Add(2)
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("p50 of {1,2,3} = %v, want 2", got)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
}

func TestWindowInterleavedQuantiles(t *testing.T) {
	// The extremes read between Adds must follow every new sample.
	var h Hist
	h.Add(3)
	if got := h.Quantile(1); got != 3 {
		t.Fatalf("after Add(3): max %g, want 3", got)
	}
	h.Add(9)
	if got := h.Quantile(1); got != 9 {
		t.Fatalf("after Add(9): max %g, want 9", got)
	}
	h.Add(1)
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("after Add(1): min %g, want 1", got)
	}
}

func TestWindowReset(t *testing.T) {
	var h Hist
	h.Add(5)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("Reset left samples: count %d", h.Count())
	}
	h.Add(2)
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("p50 after Reset = %v, want 2", got)
	}
}

// nearestRank is the exact reference: the nearest-rank p-quantile of sorted.
func nearestRank(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(rank, len(sorted)-1))]
}

// logUniform draws n samples spread evenly in log space over [lo, hi].
func logUniform(r *rand.Rand, n int, lo, hi float64) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = lo * math.Pow(hi/lo, r.Float64())
	}
	return vs
}

func TestHistQuantileBound(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for set := 0; set < 50; set++ {
		vs := logUniform(r, 1+r.Intn(2000), 4.5e-5, 7.4)
		var h Hist
		sum := 0.0
		for _, v := range vs {
			h.Add(v)
			sum += v
		}
		sort.Float64s(vs)
		if h.Count() != len(vs) || h.Max() != vs[len(vs)-1] || h.Mean() != sum/float64(len(vs)) {
			t.Fatalf("set %d: count/max/mean %d/%v/%v, want exact %d/%v/%v",
				set, h.Count(), h.Max(), h.Mean(), len(vs), vs[len(vs)-1], sum/float64(len(vs)))
		}
		for _, p := range []float64{0, 0.5, 0.9, 0.95, 0.99, 1} {
			got, exact := h.Quantile(p), nearestRank(vs, p)
			if got > exact || got < exact*(1-1.0/64) {
				t.Fatalf("set %d (n=%d): p%g = %v, exact %v: outside [exact(1-2^-6), exact]",
					set, len(vs), 100*p, got, exact)
			}
		}
	}
}

func TestHistMergeEqualsSingleHist(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a, b := logUniform(r, 300, 1e-4, 2), logUniform(r, 500, 1e-3, 5)
	var ha, hb, all Hist
	for _, v := range a {
		ha.Add(v)
		all.Add(v)
	}
	for _, v := range b {
		hb.Add(v)
		all.Add(v)
	}
	// The sum is accumulated in a different order, so Mean may differ in
	// the last bits; everything else must match exactly.
	same := func(x *Hist) bool {
		return x.counts == all.counts && x.n == all.n && x.max == all.max &&
			math.Abs(x.Mean()-all.Mean()) <= 1e-12*all.Mean()
	}
	ha.Merge(&hb)
	var empty Hist
	empty.Merge(&ha)
	ha.Merge(&Hist{})
	if !same(&ha) || !same(&empty) {
		t.Fatalf("merged hist differs from one hist over every sample: %+v vs %+v", ha.Summarize(), all.Summarize())
	}
}

func TestHistAddZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	var h Hist
	v := 1e-6
	allocs := testing.AllocsPerRun(1_000_000, func() {
		h.Add(v)
		v *= 1.00001
	})
	if allocs != 0 {
		t.Fatalf("Hist.Add allocates %v per call, want 0", allocs)
	}
	if h.Count() < 1_000_000 {
		t.Fatalf("count %d after 10^6 adds", h.Count())
	}
}
