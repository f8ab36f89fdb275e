package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// builds is how many times each run builds its workload from scratch;
// setup_s is the median build time, so one slow build does not move it. A
// build takes well under a second, so many builds cost little.
const builds = 15

// perBuild builds a workload `builds` times, timing each build, and runs
// measure on the last build for all of seconds. Each earlier build is
// released with discard and collected, with its memory returned to the
// operating system, before the next starts, so every build starts from the
// same state and peak memory holds one workload, not two. It returns the
// last build and the median build time in seconds.
func perBuild[T any](seconds float64, build func() (T, error), discard func(T), measure func(env T, seconds float64) error) (T, float64, error) {
	var keep, zero T
	times := make([]float64, 0, builds)
	for i := 0; i < builds; i++ {
		if i > 0 {
			discard(keep)
			keep = zero
		}
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		v, err := build()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		keep = v
	}
	if err := measure(keep, seconds); err != nil {
		discard(keep)
		return zero, 0, err
	}
	return keep, median(times), nil
}

// rounds runs round until minRounds have run and their timed durations add
// up to at least seconds. Each round times only its own fixed work and
// returns that duration. The heap is collected once before the first round,
// so set-up garbage is not billed to the rounds; collecting between rounds
// would also empty the program's sync.Pool scratch, which steady-state
// operation keeps. It returns the bytes each round allocated.
func rounds(seconds float64, minRounds int, round func(i int) (time.Duration, error)) ([]uint64, error) {
	var total time.Duration
	var allocs []uint64
	var ms runtime.MemStats
	runtime.GC()
	for i := 0; i < minRounds || total.Seconds() < seconds; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		d, err := round(i)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms)
		allocs = append(allocs, ms.TotalAlloc-before)
		total += d
	}
	return allocs, nil
}

// allocKBPerSeed is the steady-state allocation: the least any round
// allocated per seed it processed, in kilobytes. Rounds in which a recycled
// buffer grows to a new high-water mark allocate more, at random points of
// the run, so the minimum is the reproducible figure.
func allocKBPerSeed(allocs []uint64, seedsPerRound func(i int) int64) float64 {
	least := math.Inf(1)
	for i, a := range allocs {
		least = math.Min(least, float64(a)/1024/float64(seedsPerRound(i)))
	}
	return least
}

// peakRSSMB is the process's peak resident set size so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// gcShare measures the GC's share of CPU time over a region.
type gcShare struct{ gc, all float64 }

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGC() gcShare {
	metrics.Read(cpuSamples)
	return gcShare{gc: cpuSamples[0].Value.Float64(), all: cpuSamples[1].Value.Float64()}
}

// since returns the GC share of CPU time since g.
func (g gcShare) since() float64 {
	now := readGC()
	if d := now.all - g.all; d > 0 {
		return (now.gc - g.gc) / d
	}
	return 0
}
