package event

import (
	"fmt"
	"math"
)

// Hist grid: histSub sub-buckets per power of two over histOctaves octaves
// from histLo = 2^histMinExp up to histHi, plus bucket 0 below histLo.
const (
	histSub     = 1 << 6
	histOctaves = 63
	histMinExp  = -32
	histLo      = 1.0 / (1 << -histMinExp)
	histHi      = histLo * (1 << histOctaves)
	histBuckets = 1 + histOctaves*histSub
)

// Hist is a fixed-size, log-bucketed, mergeable histogram of scalar samples
// (latencies in seconds, batch occupancies, ...). Its memory is a fixed
// array of 4,033 uint64 counts (about 32 KB), whatever the sample count.
//
// Count, Mean and Max are exact. Quantile uses the nearest-rank rule and
// returns the lower bound of the bucket holding the nearest-rank sample,
// clamped to Max: never above the exact quantile and, inside the grid, at
// most 2^-6 below it in relative terms. Integers below 128 come back
// exactly. Samples are meant to be non-negative: values below 2^-32 (zero
// included) read as 0, and values at or above 2^31 share the last bucket.
//
// Hist is not safe for concurrent use; callers that record from multiple
// goroutines must synchronize externally.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    float64
	max    float64
}

// histBucket maps a sample to its bucket index.
func histBucket(v float64) int {
	if !(v >= histLo) { // NaN included
		return 0
	}
	if v >= histHi {
		return histBuckets - 1
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	return 1 + (exp-1-histMinExp)*histSub + int((2*frac-1)*histSub)
}

// histLower is the smallest value bucket i holds (0 for bucket 0).
func histLower(i int) float64 {
	if i == 0 {
		return 0
	}
	return math.Ldexp(1+float64((i-1)%histSub)/histSub, (i-1)/histSub+histMinExp)
}

// Add records one sample.
//
//salient:noalloc
func (h *Hist) Add(v float64) {
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.counts[histBucket(v)]++
	h.n++
	h.sum += v
}

// Merge adds every sample of o to h.
func (h *Hist) Merge(o *Hist) {
	if o.n > 0 && (h.n == 0 || o.max > h.max) {
		h.max = o.max
	}
	for i, c := range &o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// Reset discards every sample.
func (h *Hist) Reset() { *h = Hist{} }

// Count returns the number of recorded samples.
func (h *Hist) Count() int { return int(h.n) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the largest sample, or 0 with no samples.
func (h *Hist) Max() float64 { return h.max }

// Quantile returns the p-quantile (0 <= p <= 1) under the nearest-rank
// rule, within the error bound stated on Hist, or 0 with no samples.
func (h *Hist) Quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(max(1, math.Ceil(p*float64(h.n))))
	var cum uint64
	for i, c := range &h.counts {
		if cum += c; cum >= rank {
			return min(histLower(i), h.max)
		}
	}
	return h.max
}

// Summary is the fixed set of order statistics the serving experiments
// report for a latency or occupancy distribution.
type Summary struct {
	Count         int
	Mean          float64
	P50, P95, P99 float64
	Max           float64
}

// Summarize computes the standard summary of the recorded samples.
func (h *Hist) Summarize() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// String renders the summary compactly, interpreting values as seconds.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3gs p50=%.3gs p95=%.3gs p99=%.3gs max=%.3gs",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}
