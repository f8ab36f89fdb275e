package bench

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is a runnable paper table/figure reproduction.
type Experiment struct {
	ID    string
	Paper string // which table/figure of the paper this regenerates
	Run   func(Options) ([]Table, error)
}

// Options bundles the knobs shared across experiments.
type Options struct {
	Seed     uint64
	Accuracy AccuracyOpts
	Sampler  SamplerOpts
	AllRows  bool // fig2: render the full scatter
}

// DefaultOptions returns the quick-preset option set.
func DefaultOptions() Options {
	return Options{Seed: 1, Accuracy: Quick()}
}

// Experiments returns the registry of every reproduction, keyed by ID.
func Experiments() map[string]Experiment {
	wrap := func(f func(uint64) Table) func(Options) ([]Table, error) {
		return func(o Options) ([]Table, error) { return []Table{f(o.Seed)}, nil }
	}
	exps := []Experiment{
		{ID: "fig1", Paper: "Figure 1", Run: func(o Options) ([]Table, error) { return Fig1(o.Seed), nil }},
		{ID: "table1", Paper: "Table 1", Run: wrap(Table1)},
		{ID: "table2", Paper: "Table 2", Run: func(Options) ([]Table, error) { return []Table{Table2()}, nil }},
		{ID: "table3", Paper: "Table 3", Run: wrap(Table3)},
		{ID: "table6", Paper: "Table 6", Run: func(o Options) ([]Table, error) {
			t, err := Table6(o.Accuracy)
			return []Table{t}, err
		}},
		{ID: "table7", Paper: "Table 7", Run: wrap(Table7)},
		{ID: "fig2", Paper: "Figure 2", Run: func(o Options) ([]Table, error) {
			if o.AllRows {
				pts, err := Sweep(o.Sampler)
				if err != nil {
					return nil, err
				}
				return []Table{FullScatter(pts)}, nil
			}
			t, err := Fig2(o.Sampler)
			return []Table{t}, err
		}},
		{ID: "fig3", Paper: "Figure 3", Run: func(o Options) ([]Table, error) {
			t, err := Fig3(o.Accuracy)
			return []Table{t}, err
		}},
		{ID: "fig4", Paper: "Figure 4", Run: wrap(Fig4)},
		{ID: "fig5", Paper: "Figure 5", Run: wrap(Fig5)},
		{ID: "fig6", Paper: "Figure 6", Run: func(o Options) ([]Table, error) {
			timing := Fig6Timing(o.Seed)
			acc, err := Fig6Accuracy(o.Accuracy)
			if err != nil {
				return []Table{timing}, err
			}
			return []Table{timing, acc}, nil
		}},
	}
	out := make(map[string]Experiment, len(exps))
	for _, e := range exps {
		out[e.ID] = e
	}
	return out
}

// IDs returns the experiment IDs in stable order.
func IDs() []string {
	m := Experiments()
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunAll executes every experiment, rendering to w as results arrive.
func RunAll(w io.Writer, o Options) error {
	for _, id := range IDs() {
		if err := RunOne(w, id, o); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

// RunOne executes a single experiment by ID.
func RunOne(w io.Writer, id string, o Options) error {
	e, ok := Experiments()[id]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	tables, err := e.Run(o)
	for _, t := range tables {
		t.Render(w)
	}
	return err
}
