// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation, checks the workload's outputs, and prints one
// JSON result line last on standard output:
//
//	perfbench --workload train-sage --seed 1 --seconds 50 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics (endToEnd); with
// --trace 1 it holds the per-layer metrics (perLayer), measured by timing
// calls into each layer's public functions from this package. Every
// workload does fixed rounds of work generated from --seed, repeated until
// --seconds of timed work have run. A failed correctness check prints the
// result with "correct": false and exits with status 1. See README.md for
// the workloads, the metrics and why they were chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// endToEnd lists the metrics every untraced run reports, with their units.
// Each applies to every workload; README.md defines them per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"seeds_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"ok_frac", "frac"},
	{"peak_rss_mb", "MB"},
	{"feature_kb_per_seed", "kB"},
	{"alloc_kb_per_seed", "kB"},
	{"oracle_agree_frac", "frac"},
}

// perLayer lists the metrics every traced run reports. A layer that does
// no work in a workload reports 0 for its metrics there.
var perLayer = []metricSpec{
	{"trace.overhead_frac", "frac"},
	{"dataset.gen_ms", "ms"},
	{"graph.versions", "count"},
	{"graph.compactions", "count"},
	{"sampler.sample_ms", "ms"},
	{"sampler.nodes_per_seed", "count"},
	{"sampler.edges_per_seed", "count"},
	{"store.gather_ms", "ms"},
	{"store.rows_per_seed", "count"},
	{"cache.hit_rate", "frac"},
	{"prep.wait_ms", "ms"},
	{"prep.worker_busy_frac", "frac"},
	{"prep.overhead_frac", "frac"},
	{"train.decode_ms", "ms"},
	{"train.final_loss", "nats"},
	{"nn.forward_ms", "ms"},
	{"nn.backward_ms", "ms"},
	{"nn.adam_ms", "ms"},
	{"runtime.gc_cpu_frac", "frac"},
	{"serve.occupancy", "count"},
	{"serve.server_p50_ms", "ms"},
	{"fleet.route_ms", "ms"},
	{"fleet.balance", "frac"},
	{"fleet.write_p50_ms", "ms"},
	{"embcache.hit_rate", "frac"},
}

type metricSpec struct{ name, unit string }

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
}

// report is what a workload hands back: metric values by name, the
// operation counts, and the correctness checks that failed.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"train-sage":  runTrainSage,
	"serve-churn": runServeChurn,
}

// unused records 0 for per-layer metrics of layers that do no work in a
// workload.
func unused(v map[string]float64, names ...string) {
	for _, n := range names {
		v[n] = 0
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: train-sage | serve-churn")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "timed seconds of work per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, err := execute(run, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: encode result: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and shapes its report into the result line,
// keeping exactly the metric set the mode promises.
func execute(run func(config) (*report, error), cfg config) (*Result, error) {
	rep, err := run(cfg)
	if err != nil {
		return nil, err
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := &Result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]Metric, len(specs)),
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
	}
	for _, s := range specs {
		v, ok := rep.values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s missing or not finite (%v)", s.name, v)
		}
		res.Metrics[s.name] = Metric{Value: v, Unit: s.unit}
		fmt.Printf("%-24s %14.6g %s\n", s.name, v, s.unit)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operations attempted")
	}
	return res, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
