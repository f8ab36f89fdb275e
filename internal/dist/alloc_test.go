package dist

import (
	"testing"

	"salient/internal/half"
	"salient/internal/race"
	"salient/internal/slicing"
)

// TestRemoteGatherSteadyStateAllocs: a warm Gather through a store.Remote
// over a loopback cluster — home rows, mirror hits and per-part fetches,
// with the handler re-encoding fetched rows — allocates nothing per call at
// every storage precision. The degree-warmed mirror never refreshes, so no
// re-placement falls in the measured window.
func TestRemoteGatherSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race")
	}
	ds := distDS(t)
	lists, seeds := sampleLists(t, ds, 1, 64)
	ids, batch := lists[0], seeds[0]
	for _, prec := range []half.Precision{half.FP16, half.FP32, half.Int8} {
		c, err := NewCluster(ds, ClusterOptions{Parts: 3, Precision: prec, CacheRows: 64})
		if err != nil {
			t.Fatal(err)
		}
		rm := c.Remote(0)
		buf := slicing.NewPinned(len(ids), ds.FeatDim, batch)
		gather := func() {
			if err := rm.Gather(buf, ids, batch); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			gather()
		}
		if rm.Stats().RowsRemote == 0 || rm.Stats().CacheHits == 0 {
			t.Fatalf("%s: gather exercised no fetch or no mirror hit: %+v", prec, rm.Stats())
		}
		if allocs := testing.AllocsPerRun(100, gather); allocs != 0 {
			t.Fatalf("%s: warm remote gather allocates %.1f objects/call, want 0", prec, allocs)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
