package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestWorkloads runs every workload briefly in both modes. The traced run
// carries the equivalence checks — the traced training loop ends at the
// untraced trainer's loss bit for bit, and the replayed batches have the
// executor's node IDs — so a Correct result is the equivalence. Both runs
// must print exactly their mode's metrics, each with a unit and a finite
// value.
func TestWorkloads(t *testing.T) {
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res, err := execute(run, config{seed: 3, seconds: 0.1, trace: trace})
				if err != nil {
					t.Fatalf("trace %v: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace %v: correct %v, %d of %d failed", trace, res.Correct, res.Failed, res.Attempted)
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Fatalf("trace %v: %d metrics, want %d", trace, len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace %v: metric %s = %+v, want unit %s and a finite value", trace, s.name, m, s.unit)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the metrics and workloads this
// program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d implemented", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil || w.Why == "" {
			t.Errorf("workload %q: not implemented or no reason given", w.Name)
		}
	}
	same := func(kind string, got []entry, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d listed, %d reported", kind, len(got), len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.name || g.Unit != s.unit || (g.Better != "lower" && g.Better != "higher") || (g.Bound != nil) != bounded {
				t.Errorf("%s[%d] = %+v, want %s in %s", kind, i, g, s.name, s.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
}
