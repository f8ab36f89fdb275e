package dist

import (
	"math"
	"testing"

	"salient/internal/rng"
	"salient/internal/slicing"
	"salient/internal/store"
)

// zipfIDs draws Zipf-popular node IDs with popularity rank decoupled from
// degree via a seeded permutation (permSeed fixes the ranking across
// phases, drawSeed varies the draws) — the skewed-but-degree-blind
// workload the VIP mirror claim is stated against.
func zipfIDs(n int, skew float64, permSeed, drawSeed uint64, count int) []int32 {
	rank := make([]int32, n)
	rng.New(permSeed).Perm(rank)
	r := rng.New(drawSeed)
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1.0 / math.Pow(float64(i+1), skew)
		cum[i] = total
	}
	out := make([]int32, count)
	for k := range out {
		u := r.Float64() * total
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[k] = rank[lo]
	}
	return out
}

// TestVIPMirrorMovesFewerWireBytesThanDegree pins the distributed half of
// the VIP acceptance claim: at equal mirror capacity, warming on observed
// fetch traffic beats degree warming on a Zipf workload whose popularity
// is independent of degree — strictly fewer wire bytes in steady state.
func TestVIPMirrorMovesFewerWireBytesThanDegree(t *testing.T) {
	ds := distDS(t)
	n := int(ds.G.N)
	const (
		mirrorRows = 96
		warmBatch  = 40
		measBatch  = 40
		batchSize  = 128
		skew       = 1.1
	)

	run := func(policy store.MirrorPolicy) int64 {
		c, err := NewCluster(ds, ClusterOptions{
			Parts:     2,
			CacheRows: mirrorRows,
			Mirror:    policy,
			// Keep the periodic trigger out of the way; the test refreshes
			// explicitly at the warm/measure boundary.
			MirrorRefreshEvery: 1 << 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		r0 := c.Remote(0)
		buf := slicing.NewPinned(batchSize, r0.Dim(), 1)
		drive := func(drawSeed uint64, batches int) {
			for b := 0; b < batches; b++ {
				ids := zipfIDs(n, skew, 7, drawSeed+uint64(b), batchSize)
				if err := r0.Gather(buf, ids, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		drive(1000, warmBatch)
		if policy == store.MirrorVIP {
			if err := r0.RefreshMirror(); err != nil {
				t.Fatal(err)
			}
			if r0.MirrorRows() == 0 {
				t.Fatal("VIP mirror still empty after traffic + refresh")
			}
			if r0.MirrorRows() > mirrorRows {
				t.Fatalf("VIP mirror holds %d rows, budget %d", r0.MirrorRows(), mirrorRows)
			}
		}
		r0.ResetStats()
		drive(5000, measBatch)
		return r0.Stats().BytesRemote
	}

	vip := run(store.MirrorVIP)
	deg := run(store.MirrorDegree)
	if vip >= deg {
		t.Fatalf("VIP mirror moved %d wire bytes, degree moved %d: VIP must move strictly fewer at equal capacity", vip, deg)
	}
	t.Logf("mirror %d rows: VIP %d wire bytes vs degree %d (%.1f%% saved)",
		mirrorRows, vip, deg, 100*(1-float64(vip)/float64(deg)))
}

// TestVIPMirrorStaysBitIdentical: mirror policy changes replication and
// accounting, never staged contents — a VIP-mirrored gather is
// byte-identical to an unmirrored one.
func TestVIPMirrorStaysBitIdentical(t *testing.T) {
	ds := distDS(t)
	n := int(ds.G.N)
	plain, err := NewCluster(ds, ClusterOptions{Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	vip, err := NewCluster(ds, ClusterOptions{
		Parts: 2, CacheRows: 64, Mirror: store.MirrorVIP, MirrorRefreshEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vip.Close()

	p0, v0 := plain.Remote(0), vip.Remote(0)
	bufP := slicing.NewPinned(96, p0.Dim(), 8)
	bufV := slicing.NewPinned(96, v0.Dim(), 8)
	for b := 0; b < 24; b++ { // crosses several refresh windows
		ids := zipfIDs(n, 1.2, 3, uint64(b), 96)
		if err := p0.Gather(bufP, ids, 8); err != nil {
			t.Fatal(err)
		}
		if err := v0.Gather(bufV, ids, 8); err != nil {
			t.Fatal(err)
		}
		for i := range bufP.H {
			if bufP.H[i] != bufV.H[i] {
				t.Fatalf("batch %d: staged fp16 scalar %d differs under VIP mirror", b, i)
			}
		}
		for i := 0; i < 8; i++ {
			if bufP.Labels[i] != bufV.Labels[i] {
				t.Fatalf("batch %d: label %d differs under VIP mirror", b, i)
			}
		}
	}
	if v0.MirrorRows() == 0 {
		t.Fatal("periodic refresh never filled the VIP mirror")
	}
}
