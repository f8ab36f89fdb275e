package pipeline

import (
	"testing"

	"salient/internal/device"
)

func allModes() []Mode {
	return []Mode{Baseline, FastSample, SharedMem, Pipelined}
}

func TestOptimizationsMonotonicallyImprove(t *testing.T) {
	// Table 3's core claim: each stacked optimization reduces epoch time,
	// on every dataset.
	pr := device.PaperProfile()
	for name, cal := range device.Calibrations() {
		prev := 0.0
		for i, mode := range allModes() {
			b := SimulateEpoch(pr, cal, mode, 7)
			if b.Total <= 0 {
				t.Fatalf("%s/%v: non-positive epoch %v", name, mode, b.Total)
			}
			if i > 0 && b.Total >= prev {
				t.Fatalf("%s: %v (%.2fs) not faster than previous mode (%.2fs)",
					name, mode, b.Total, prev)
			}
			prev = b.Total
		}
	}
}

func TestBaselineMatchesTable1Shape(t *testing.T) {
	// Table 1: across datasets, only ~28% of baseline epoch time is GPU
	// training; prep+transfer dominate.
	pr := device.PaperProfile()
	for name, cal := range device.Calibrations() {
		b := SimulateEpoch(pr, cal, Baseline, 7)
		trainFrac := b.TrainBlock / b.Total
		if trainFrac < 0.20 || trainFrac > 0.45 {
			t.Fatalf("%s: baseline train fraction %.2f outside Table 1's band", name, trainFrac)
		}
		if b.PrepBlock()+b.TransferBlock < b.TrainBlock {
			t.Fatalf("%s: prep+transfer (%.2f) should dominate train (%.2f) in the baseline",
				name, b.PrepBlock()+b.TransferBlock, b.TrainBlock)
		}
	}
}

func TestPipelinedSpeedupInPaperBand(t *testing.T) {
	// Figure 4: SALIENT is 3.0x-3.4x over the baseline on one GPU.
	pr := device.PaperProfile()
	for name, cal := range device.Calibrations() {
		base := SimulateEpoch(pr, cal, Baseline, 7)
		sal := SimulateEpoch(pr, cal, Pipelined, 7)
		s := base.Total / sal.Total
		if s < 2.7 || s > 3.9 {
			t.Fatalf("%s: single-GPU speedup %.2fx outside the paper's ~3-3.4x band", name, s)
		}
	}
}

func TestPipelinedNearGPUBound(t *testing.T) {
	// §6: with SALIENT, per-epoch runtime is nearly equal to GPU compute
	// time; GPU utilization approaches 1. The papers-512d input is §8's
	// caveat: with 512-dim features (4x papers100M's transfer and slicing
	// volume) the pipelined epoch is data-bus bound instead — compute idles
	// on transfers, not on batch preparation, and the epoch tracks bus time.
	pr := device.PaperProfile()
	cals := device.Calibrations()
	wide := cals["papers"]
	wide.TransferBytes *= 4
	wide.SliceSec *= 4
	cals["papers-512d"] = wide
	for name, cal := range cals {
		t.Run(name, func(t *testing.T) {
			b := SimulateEpoch(pr, cal, Pipelined, 7)
			if name == "papers-512d" {
				bus := pr.TransferTime(int64(cal.TransferBytes), pr.PipelinedTransferEff)
				if b.GPUUtil() > 0.5 || b.TransferBlock <= b.SampleBlock || b.Total > 1.05*bus {
					t.Fatalf("not data-bus bound: util %.2f, transfer stall %.2fs, prep stall %.2fs, epoch %.2fs vs bus %.2fs",
						b.GPUUtil(), b.TransferBlock, b.SampleBlock, b.Total, bus)
				}
				return
			}
			if u := b.GPUUtil(); u < 0.90 {
				t.Fatalf("pipelined GPU utilization %.2f, want >0.90", u)
			}
			if b.Total > 1.15*b.GPUBusy {
				t.Fatalf("pipelined epoch %.2fs far above GPU busy %.2fs", b.Total, b.GPUBusy)
			}
		})
	}
}

func TestBaselineGPUUtilizationLow(t *testing.T) {
	pr := device.PaperProfile()
	b := SimulateEpoch(pr, device.Calibration("products"), Baseline, 7)
	if u := b.GPUUtil(); u > 0.5 {
		t.Fatalf("baseline GPU utilization %.2f suspiciously high", u)
	}
}

func TestDeterministicInSeed(t *testing.T) {
	pr := device.PaperProfile()
	cal := device.Calibration("arxiv")
	for _, mode := range allModes() {
		a := SimulateEpoch(pr, cal, mode, 42)
		b := SimulateEpoch(pr, cal, mode, 42)
		if a != b {
			t.Fatalf("%v: same seed, different breakdowns", mode)
		}
		c := SimulateEpoch(pr, cal, mode, 43)
		if a == c {
			t.Fatalf("%v: different seed produced identical draw-dependent breakdown", mode)
		}
	}
}

func TestBreakdownComponentsSumSanely(t *testing.T) {
	// In blocking modes, components account for (almost) the whole epoch.
	pr := device.PaperProfile()
	for _, mode := range []Mode{Baseline, FastSample, SharedMem} {
		b := SimulateEpoch(pr, device.Calibration("products"), mode, 7)
		sum := b.PrepBlock() + b.TransferBlock + b.TrainBlock
		if sum > b.Total+1e-9 {
			t.Fatalf("%v: blocking components %.3f exceed total %.3f", mode, sum, b.Total)
		}
		if sum < 0.85*b.Total {
			t.Fatalf("%v: blocking components %.3f unaccountably below total %.3f", mode, sum, b.Total)
		}
	}
}

func TestPrepOnlyMatchesTable2Anchors(t *testing.T) {
	pr := device.PaperProfile()
	cal := device.Calibration("products")

	s, l, both := PrepOnly(pr, cal, false, 1)
	if s != 71.1 || l != 7.6 {
		t.Fatalf("PyG P=1 sample/slice %.1f/%.1f, want 71.1/7.6", s, l)
	}
	if both < s {
		t.Fatalf("PyG 'both' %.1f below sampling %.1f", both, s)
	}

	s20, l20, b20 := PrepOnly(pr, cal, false, 20)
	if s20 < 6.5 || s20 > 8.0 {
		t.Fatalf("PyG P=20 sampling %.2fs, want ~7.2s", s20)
	}
	if l20 > 1.5 {
		t.Fatalf("PyG P=20 slicing %.2fs, want ~1.2s", l20)
	}

	ss, sl, sb := PrepOnly(pr, cal, true, 20)
	if ss < 1.6 || ss > 2.3 {
		t.Fatalf("SALIENT P=20 sampling %.2fs, want ~1.9s", ss)
	}
	if sl >= l20 {
		t.Fatalf("SALIENT slicing %.2f not faster than PyG's %.2f", sl, l20)
	}
	if sb >= b20 {
		t.Fatalf("SALIENT both %.2f not faster than PyG both %.2f", sb, b20)
	}
	_ = sb
	// SALIENT end-to-end throughput beats PyG by ~3x at P=20 (Table 2).
	if ratio := b20 / sb; ratio < 2.0 {
		t.Fatalf("SALIENT P=20 prep advantage %.2fx, want >2x", ratio)
	}
}

func TestPrepOnlyScalesWithWorkers(t *testing.T) {
	pr := device.PaperProfile()
	cal := device.Calibration("products")
	for _, salient := range []bool{false, true} {
		prev := 1e18
		for _, p := range []int{1, 2, 4, 8, 16, 32} {
			_, _, both := PrepOnly(pr, cal, salient, p)
			if both >= prev {
				t.Fatalf("salient=%v: prep time not decreasing at P=%d", salient, p)
			}
			prev = both
		}
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		Baseline:   "PyG baseline",
		FastSample: "+ fast sampling",
		SharedMem:  "+ shared-memory batch prep",
		Pipelined:  "+ pipelined data transfers",
	}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode should still render")
	}
}
