package device

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPaperProfileConstants(t *testing.T) {
	pr := PaperProfile()
	if pr.DMAPeak != 12.3e9 {
		t.Fatalf("DMA peak %v, want the paper's 12.3 GB/s", pr.DMAPeak)
	}
	if pr.BaselineTransferEff != 0.75 || pr.PipelinedTransferEff != 0.99 {
		t.Fatalf("transfer efficiencies %v/%v, want 0.75/0.99 (paper §3.3, §4.3)",
			pr.BaselineTransferEff, pr.PipelinedTransferEff)
	}
	if pr.Workers != 20 {
		t.Fatalf("workers %d, want 20 (one Xeon 6248 socket)", pr.Workers)
	}
}

func TestTransferTimeMatchesPaperRates(t *testing.T) {
	pr := PaperProfile()
	// §3.3: a papers100M epoch moves 164 GB; at the baseline's effective
	// 9.2 GB/s that is ~17.8s, matching Table 1's transfer row.
	got := pr.TransferTime(164e9, pr.BaselineTransferEff)
	if got < 17 || got > 19 {
		t.Fatalf("baseline transfer of 164GB = %.2fs, want ~17.8s", got)
	}
	// Pipelined at 99%: ~13.5s of pure copy time.
	if got := pr.TransferTime(164e9, pr.PipelinedTransferEff); got > 14 {
		t.Fatalf("pipelined transfer %.2fs, want <14s", got)
	}
}

func TestWireTime(t *testing.T) {
	pr := PaperProfile()
	if pr.WireTime(0, 0) != 0 {
		t.Fatal("no traffic must cost nothing")
	}
	// Pure latency: each batched call pays one 350us round trip.
	if got := pr.WireTime(0, 100); math.Abs(got-100*pr.NetLatency) > 1e-12 {
		t.Fatalf("100 empty calls = %v, want %v", got, 100*pr.NetLatency)
	}
	// Pure bandwidth: 1.25 GB streams in one second plus one latency.
	if got := pr.WireTime(1.25e9, 1); math.Abs(got-(1+pr.NetLatency)) > 1e-9 {
		t.Fatalf("1.25GB in one call = %v, want ~1s", got)
	}
	// Batching fewer, larger calls is strictly cheaper for the same bytes.
	if pr.WireTime(1e8, 10) >= pr.WireTime(1e8, 1000) {
		t.Fatal("batched calls must beat chatty calls for equal bytes")
	}
}

func TestParallelSpeedupProperties(t *testing.T) {
	if ParallelSpeedup(0.054, 1) != 1 {
		t.Fatal("speedup at P=1 must be 1")
	}
	// Calibration anchor: PyG sampling scales 71.1s -> ~7.2s at P=20.
	s := ParallelSpeedup(0.054, 20)
	if eff := 71.1 / s; eff < 6.5 || eff > 8.0 {
		t.Fatalf("PyG 20-worker sampling time %.2fs, want ~7.2s", eff)
	}
	// Monotone, sublinear.
	prev := 0.0
	for p := 1; p <= 64; p *= 2 {
		v := ParallelSpeedup(0.1, p)
		if v <= prev {
			t.Fatalf("speedup not monotone at P=%d", p)
		}
		if v > float64(p) {
			t.Fatalf("speedup %v exceeds linear at P=%d", v, p)
		}
		prev = v
	}
}

func TestRingAllReduce(t *testing.T) {
	pr := PaperProfile()
	if pr.RingAllReduce(1e6, 1, 2) != 0 {
		t.Fatal("single-replica all-reduce should be free")
	}
	// Within one machine everything runs at NVLink rate, no latency term.
	intra := pr.RingAllReduce(1e6, 2, 2)
	want := 2.0 * (1e6 / 2) / pr.NVLinkBandwidth
	if math.Abs(intra-want) > 1e-12 {
		t.Fatalf("intra-machine all-reduce %v, want %v", intra, want)
	}
	// Cross-machine is strictly slower than intra for the same volume.
	cross := pr.RingAllReduce(1e6, 4, 2)
	if cross <= intra {
		t.Fatalf("cross-machine %v not slower than intra %v", cross, intra)
	}
	// More bytes never get cheaper.
	if pr.RingAllReduce(2e6, 8, 2) <= pr.RingAllReduce(1e6, 8, 2) {
		t.Fatal("all-reduce not monotone in bytes")
	}
}

func TestLogNormalFactorUnitMean(t *testing.T) {
	// Mean over a uniform grid of u should be ~1 for any cv.
	for _, cv := range []float64{0.1, 0.25, 0.5} {
		n := 20000
		sum := 0.0
		for i := 1; i <= n; i++ {
			sum += LogNormalFactor((float64(i)-0.5)/float64(n), cv)
		}
		mean := sum / float64(n)
		if math.Abs(mean-1) > 0.02 {
			t.Fatalf("cv=%v: mean %v, want ~1", cv, mean)
		}
	}
	if LogNormalFactor(0.5, 0) != 1 {
		t.Fatal("cv=0 must be deterministic 1")
	}
}

func TestLogNormalFactorPositiveAndMonotone(t *testing.T) {
	f := func(u float64) bool {
		u = math.Mod(math.Abs(u), 1)
		v := LogNormalFactor(u, 0.4)
		return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Monotone in u (probit is increasing).
	prev := 0.0
	for i := 1; i < 100; i++ {
		v := LogNormalFactor(float64(i)/100, 0.3)
		if i > 1 && v <= prev {
			t.Fatalf("not monotone at u=%v", float64(i)/100)
		}
		prev = v
	}
}

func TestProbitRoundTrip(t *testing.T) {
	// probit(Phi(z)) ~= z on a reasonable range.
	phi := func(z float64) float64 {
		return 0.5 * (1 + math.Erf(z/math.Sqrt2))
	}
	for z := -3.0; z <= 3.0; z += 0.25 {
		got := probit(phi(z))
		if math.Abs(got-z) > 2e-3 {
			t.Fatalf("probit(Phi(%v)) = %v", z, got)
		}
	}
	// Extremes clamp rather than blow up.
	if v := probit(0); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatal("probit(0) not finite")
	}
	if v := probit(1); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatal("probit(1) not finite")
	}
}

func TestCalibrationsAnchoredToPaper(t *testing.T) {
	cals := Calibrations()
	if len(cals) != 3 {
		t.Fatalf("want 3 dataset calibrations, got %d", len(cals))
	}
	prod := Calibration("products")
	if prod.SampleSec != 71.1 {
		t.Fatalf("products P=1 sampling %v, want Table 2's 71.1s", prod.SampleSec)
	}
	if got := prod.SampleSec / prod.SampleSpeedup; math.Abs(got-28.3) > 0.01 {
		t.Fatalf("products SALIENT P=1 sampling %v, want 28.3s", got)
	}
	papers := Calibration("papers")
	if papers.TransferBytes != 164e9 {
		t.Fatalf("papers transfer volume %v, want §3.3's 164GB", papers.TransferBytes)
	}
	if papers.TrainSec != 13.9 {
		t.Fatalf("papers GPU train %v, want Table 1's 13.9s", papers.TrainSec)
	}
	// Batch counts are ceil(train/1024) of Table 4.
	if papers.Batches != 1172 || prod.Batches != 193 || Calibration("arxiv").Batches != 89 {
		t.Fatal("batch counts diverge from Table 4 splits")
	}
}

func TestCalibrationPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Calibration("ogbn-nonexistent")
}

func TestArchCalibrationsComputeDensityOrdering(t *testing.T) {
	// The Figure 6 premise: computation density (GPU compute relative to
	// transferred bytes) is lowest for SAGE, then GIN, GAT, SAGE-RI.
	arch := ArchCalibrations()
	if len(arch) != 4 || arch[0].Name != "SAGE" {
		t.Fatalf("unexpected arch set: %+v", arch)
	}
	density := func(a ArchCal) float64 { return a.TrainSecScale / a.BytesScale }
	byName := map[string]float64{}
	for _, a := range arch {
		byName[a.Name] = density(a)
	}
	if !(byName["SAGE"] < byName["GIN"] && byName["GIN"] < byName["GAT"] && byName["GAT"] < byName["SAGE-RI"]) {
		t.Fatalf("compute density not ordered SAGE<GIN<GAT<SAGE-RI: %v", byName)
	}
}
