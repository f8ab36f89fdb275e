package bench

import (
	"fmt"
	"sort"
	"time"

	"salient/internal/dataset"
	"salient/internal/graph"
	"salient/internal/rng"
	"salient/internal/sampler"
)

// SamplerOpts sizes the Figure 2 design-space sweep.
type SamplerOpts struct {
	Scale   float64 // products stand-in scale for the reference trace
	Batch   int
	Fanouts []int
	Batches int // mini-batches measured per configuration
	Rounds  int // timing rounds; the minimum is kept (noise rejection)
	Seed    uint64
}

func (o *SamplerOpts) defaults() {
	if o.Scale == 0 {
		o.Scale = 0.2
	}
	if o.Batch == 0 {
		o.Batch = 512
	}
	if len(o.Fanouts) == 0 {
		o.Fanouts = []int{15, 10, 5}
	}
	if o.Batches == 0 {
		o.Batches = 6
	}
	if o.Rounds == 0 {
		o.Rounds = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// SweepPoint is one sampler configuration's measured performance on the two
// machine profiles, as a speedup relative to the PyG baseline configuration.
type SweepPoint struct {
	Config   sampler.Config
	SpeedupA float64 // profile A: cache-resident reference trace
	SpeedupB float64 // profile B: bandwidth-bound reference trace
}

// Sweep measures every design-space configuration (paper Figure 2).
//
// The paper plots 96 sampler variants on two CPU architectures (x86 and
// PowerPC). Without a second architecture available, the two profiles here
// are two reference traces with different memory behaviour: profile A uses
// a graph sized to stay cache-resident (latency/branch-dominated, as on the
// paper's x86) and profile B a several-times-larger graph whose neighbor
// and feature accesses spill to DRAM (bandwidth-dominated, the axis along
// which the PowerPC machine differs). What the figure must show survives
// the substitution: the relative ordering of data-structure choices is
// consistent across both profiles.
func Sweep(o SamplerOpts) ([]SweepPoint, error) {
	o.defaults()
	small, err := dataset.Load(dataset.Products, o.Scale)
	if err != nil {
		return nil, err
	}
	big, err := dataset.Load(dataset.Products, o.Scale*6)
	if err != nil {
		return nil, err
	}

	cfgs := sampler.Enumerate()
	timesA := make([]float64, len(cfgs))
	timesB := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		timesA[i] = measure(small.G, small.Train, cfg, o)
		timesB[i] = measure(big.G, big.Train, cfg, o)
	}
	baseA := measure(small.G, small.Train, sampler.BaselineConfig(), o)
	baseB := measure(big.G, big.Train, sampler.BaselineConfig(), o)

	out := make([]SweepPoint, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = SweepPoint{
			Config:   cfg,
			SpeedupA: baseA / timesA[i],
			SpeedupB: baseB / timesB[i],
		}
	}
	return out, nil
}

// measure times sampling o.Batches mini-batches with the given config,
// keeping the minimum over o.Rounds rounds. Identical seeds across configs
// make every configuration sample the same reference trace.
func measure(g *graph.CSR, seeds []int32, cfg sampler.Config, o SamplerOpts) float64 {
	s := sampler.New(g, o.Fanouts, cfg)
	best := 0.0
	for round := 0; round < o.Rounds; round++ {
		r := rng.New(o.Seed)
		start := time.Now()
		for b := 0; b < o.Batches; b++ {
			lo := (b * o.Batch) % max(1, len(seeds)-o.Batch)
			s.Sample(r, seeds[lo:lo+o.Batch])
		}
		el := time.Since(start).Seconds()
		if round == 0 || el < best {
			best = el
		}
	}
	return best
}

// Fig2 renders the design-space sweep as the paper's scatter summary:
// speedup of every configuration on both profiles, plus the headline
// data-structure effects (flat hash map ~2x, array set a further gain).
func Fig2(o SamplerOpts) (Table, error) {
	points, err := Sweep(o)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "fig2",
		Title:  "Sampler design-space exploration: speedup vs PyG baseline on two profiles",
		Header: []string{"Config", "Profile A", "Profile B"},
	}

	sorted := append([]SweepPoint(nil), points...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].SpeedupA > sorted[j].SpeedupA })
	show := sorted
	if len(show) > 12 {
		show = show[:12]
	}
	for _, p := range show {
		t.AddRow(p.Config.String(), speedup(p.SpeedupA), speedup(p.SpeedupB))
	}
	t.AddNote("top 12 of %d configurations shown; full scatter via salient fig2 -all", len(points))

	fast := findPoint(points, sampler.FastConfig())
	base := findPoint(points, sampler.BaselineConfig())
	t.AddNote("SALIENT tuned config: %.2fx / %.2fx (paper: ~2.5x end-to-end per Table 2)",
		fast.SpeedupA, fast.SpeedupB)
	t.AddNote("baseline config sanity: %.2fx / %.2fx (should be ~1.0)", base.SpeedupA, base.SpeedupB)

	mapGain := axisEffect(points, func(c sampler.Config) (bool, sampler.Config) {
		if c.IDMap != sampler.IDMapStd {
			return false, c
		}
		c2 := c
		c2.IDMap = sampler.IDMapFlat
		return true, c2
	})
	setGain := axisEffect(points, func(c sampler.Config) (bool, sampler.Config) {
		if c.Dedup != sampler.DedupFlatSet {
			return false, c
		}
		c2 := c
		c2.Dedup = sampler.DedupArray
		return true, c2
	})
	t.AddNote("flat hash map vs std map, matched pairs: %.2fx mean (paper: ~2x)", mapGain)
	t.AddNote("array set vs flat hash set, matched pairs: %.2fx mean (paper: +17%%)", setGain)
	return t, nil
}

// findPoint locates a configuration in the sweep.
func findPoint(points []SweepPoint, cfg sampler.Config) SweepPoint {
	for _, p := range points {
		if p.Config == cfg {
			return p
		}
	}
	return SweepPoint{}
}

// axisEffect computes the mean matched-pair speedup of changing one design
// axis while holding the others fixed: for each config where pair returns
// (true, altered), the ratio time(config)/time(altered) expressed through
// the already-normalized speedups.
func axisEffect(points []SweepPoint, pair func(sampler.Config) (bool, sampler.Config)) float64 {
	byCfg := make(map[sampler.Config]SweepPoint, len(points))
	for _, p := range points {
		byCfg[p.Config] = p
	}
	var sum float64
	var n int
	for _, p := range points {
		ok, alt := pair(p.Config)
		if !ok {
			continue
		}
		q, found := byCfg[alt]
		if !found || p.SpeedupA <= 0 {
			continue
		}
		sum += q.SpeedupA / p.SpeedupA
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FullScatter renders every sweep point (the -all variant of fig2).
func FullScatter(points []SweepPoint) Table {
	t := Table{
		ID:     "fig2all",
		Title:  "All sampler design-space configurations",
		Header: []string{"#", "Config", "Profile A", "Profile B"},
	}
	for i, p := range points {
		t.AddRow(fmt.Sprintf("%d", i), p.Config.String(), speedup(p.SpeedupA), speedup(p.SpeedupB))
	}
	return t
}
