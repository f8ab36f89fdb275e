package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := Table{
		ID:     "t",
		Title:  "demo",
		Header: []string{"a", "bb"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	tb.AddNote("note %d", 7)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== t: demo ==", "333", "note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFormattingHelpers(t *testing.T) {
	if secs(123.4) != "123s" || secs(12.34) != "12.3s" || secs(1.234) != "1.23s" {
		t.Fatalf("secs formatting: %s %s %s", secs(123.4), secs(12.34), secs(1.234))
	}
	if pct(0.283) != "28%" {
		t.Fatalf("pct: %s", pct(0.283))
	}
	if speedup(3.04) != "3.04x" {
		t.Fatalf("speedup: %s", speedup(3.04))
	}
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	tb := Table1(1)
	if len(tb.Rows) != 3 {
		t.Fatalf("want 3 dataset rows, got %d", len(tb.Rows))
	}
	if tb.Rows[0][0] != "arxiv" || tb.Rows[2][0] != "papers" {
		t.Fatalf("row order wrong: %v", tb.Rows)
	}
}

func TestTable2HasThreeWorkerCounts(t *testing.T) {
	tb := Table2()
	if len(tb.Rows) != 3 {
		t.Fatalf("want rows for P=1,10,20, got %d", len(tb.Rows))
	}
	if tb.Rows[0][0] != "1" || tb.Rows[2][0] != "20" {
		t.Fatalf("worker counts wrong: %v", tb.Rows)
	}
}

func TestTable3FourModes(t *testing.T) {
	tb := Table3(1)
	if len(tb.Rows) != 4 {
		t.Fatalf("want 4 optimization rows, got %d", len(tb.Rows))
	}
	if !strings.Contains(tb.Rows[0][0], "PyG") || !strings.Contains(tb.Rows[3][0], "pipelined") {
		t.Fatalf("mode labels wrong: %v", tb.Rows)
	}
}

func TestFig4AndFig5AndTable7Render(t *testing.T) {
	var buf bytes.Buffer
	for _, tb := range []Table{Fig4(1), Fig5(1), Table7(1), Fig6Timing(1)} {
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: no rows", tb.ID)
		}
		tb.Render(&buf)
	}
	if !strings.Contains(buf.String(), "SALIENT") {
		t.Fatal("rendered output missing SALIENT rows")
	}
}

func TestRegistryCoversEveryPaperExhibit(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table6", "table7",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(got), len(want), got)
	}
	set := map[string]bool{}
	for _, id := range got {
		set[id] = true
	}
	for _, id := range want {
		if !set[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
}

func TestRunOneUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := RunOne(&buf, "table99", DefaultOptions()); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestRunOneTimingExperiments(t *testing.T) {
	var buf bytes.Buffer
	o := DefaultOptions()
	for _, id := range []string{"table1", "table2", "table3", "fig4", "fig5", "table7"} {
		if err := RunOne(&buf, id, o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

// tinyAcc is a minimal accuracy preset so the real-training experiment
// drivers stay testable in seconds.
func tinyAcc() AccuracyOpts {
	return AccuracyOpts{Scale: 0.05, Hidden: 16, Layers: 2, Epochs: 2, Reps: 1, Workers: 2, Seed: 1}
}

func TestTable6RunsAtTinyScale(t *testing.T) {
	tb, err := Table6(tinyAcc())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("want 3 dataset rows, got %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if len(row) != 5 {
			t.Fatalf("want 5 columns (dataset + 4 fanouts), got %v", row)
		}
	}
}

func TestFig3RunsAtTinyScale(t *testing.T) {
	tb, err := Fig3(tinyAcc())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("no degree bins")
	}
}

func TestSweepTinyIsSane(t *testing.T) {
	pts, err := Sweep(SamplerOpts{Scale: 0.04, Batch: 64, Fanouts: []int{5, 5}, Batches: 2, Rounds: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 96 {
		t.Fatalf("design space has %d points, want 96", len(pts))
	}
	for _, p := range pts {
		if p.SpeedupA <= 0 || p.SpeedupB <= 0 {
			t.Fatalf("non-positive speedup for %v", p.Config)
		}
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{1, 2, 3})
	if m != 2 || s != 1 {
		t.Fatalf("meanStd = %v, %v; want 2, 1", m, s)
	}
	m, s = meanStd([]float64{5})
	if m != 5 || s != 0 {
		t.Fatalf("single value: %v, %v", m, s)
	}
	m, s = meanStd(nil)
	if m != 0 || s != 0 {
		t.Fatalf("empty: %v, %v", m, s)
	}
}

func TestFanoutHelpers(t *testing.T) {
	if f := trainFanouts(3); f[0] != 15 || f[1] != 10 || f[2] != 5 {
		t.Fatalf("trainFanouts(3) = %v", f)
	}
	if f := trainFanouts(2); f[0] != 10 || f[1] != 5 {
		t.Fatalf("trainFanouts(2) = %v", f)
	}
	if f := trainFanouts(4); len(f) != 4 {
		t.Fatalf("trainFanouts(4) = %v", f)
	}
	if f := uniformFanout(3, 20); f[0] != 20 || f[2] != 20 {
		t.Fatalf("uniformFanout = %v", f)
	}
}

func TestFig1StructuralContrast(t *testing.T) {
	tables := Fig1(1)
	if len(tables) != 2 {
		t.Fatalf("want 2 panels, got %d", len(tables))
	}
	joinRows := func(tb Table) string {
		s := ""
		for _, r := range tb.Rows {
			s += r[0] + "\n"
		}
		return s
	}
	a, b := joinRows(tables[0]), joinRows(tables[1])
	if !strings.Contains(a, "CPU main") || !strings.Contains(a, "GPU compute") {
		t.Fatal("baseline panel missing resources")
	}
	if !strings.Contains(b, "GPU compute") {
		t.Fatal("salient panel missing compute row")
	}
	// The structural claim: SALIENT's compute row has far fewer idle cells
	// than the baseline's within each panel's own span.
	idleFrac := func(panel string) float64 {
		for _, line := range strings.Split(panel, "\n") {
			if strings.Contains(line, "GPU compute") {
				bar := line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]
				dots := strings.Count(bar, ".")
				return float64(dots) / float64(len(bar))
			}
		}
		return -1
	}
	ai, bi := idleFrac(a), idleFrac(b)
	if ai < 0 || bi < 0 {
		t.Fatal("compute rows not found")
	}
	if !(bi < ai) {
		t.Fatalf("SALIENT compute idle fraction %.2f not below baseline %.2f", bi, ai)
	}
	if bi > 0.25 {
		t.Fatalf("SALIENT compute idle fraction %.2f too high for the Figure 1 claim", bi)
	}
}
