package embcache

import (
	"sync"
	"testing"

	"salient/internal/race"
)

func mustPut(t *testing.T, c *Cache, node int32, ver uint64, emb []float32) {
	t.Helper()
	if err := c.Put(node, ver, emb); err != nil {
		t.Fatalf("Put(%d, %d): %v", node, ver, err)
	}
}

func row(vals ...float32) []float32 { return vals }

func TestLookupStalenessWindow(t *testing.T) {
	c, err := New(Options{Rows: 4, Staleness: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Dim() != 0 {
		t.Fatalf("Dim before first Put = %d, want 0", c.Dim())
	}
	dst := make([]float32, 2)
	if c.Lookup(7, 5, dst) {
		t.Fatal("hit on empty cache")
	}
	mustPut(t, c, 7, 5, row(1, 2))
	if c.Dim() != 2 {
		t.Fatalf("Dim = %d, want 2", c.Dim())
	}

	cases := []struct {
		now  uint64
		want bool
	}{
		{5, true},  // exact version
		{6, true},  // within window
		{7, true},  // window boundary (now-v == staleness)
		{8, false}, // beyond window
		{4, false}, // entry from the future (newer than the pinned view)
	}
	for _, tc := range cases {
		dst[0], dst[1] = 0, 0
		got := c.Lookup(7, tc.now, dst)
		if got != tc.want {
			t.Fatalf("Lookup at now=%d = %v, want %v", tc.now, got, tc.want)
		}
		if got && (dst[0] != 1 || dst[1] != 2) {
			t.Fatalf("hit at now=%d copied %v, want [1 2]", tc.now, dst)
		}
	}

	// Width is fixed by the first Put.
	if err := c.Put(8, 5, row(1, 2, 3)); err == nil {
		t.Fatal("width-3 Put accepted by width-2 cache")
	}

	st := c.Stats()
	if st.Lookups != 6 || st.Hits != 3 || st.Stale != 2 {
		t.Fatalf("stats = %+v, want 6 lookups, 3 hits, 2 stale", st)
	}
}

func TestStalenessZeroNeverServes(t *testing.T) {
	c, err := New(Options{Rows: 4, Staleness: 0})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, c, 1, 3, row(9))
	dst := make([]float32, 1)
	for now := uint64(0); now < 6; now++ {
		if c.Lookup(1, now, dst) {
			t.Fatalf("staleness 0 served a hit at now=%d", now)
		}
	}
}

func TestPutOverwriteNewerWins(t *testing.T) {
	c, err := New(Options{Rows: 2, Staleness: 10})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, c, 1, 5, row(5))
	mustPut(t, c, 1, 7, row(7)) // newer overwrites
	mustPut(t, c, 1, 6, row(6)) // older is discarded
	dst := make([]float32, 1)
	if !c.Lookup(1, 8, dst) || dst[0] != 7 {
		t.Fatalf("got %v (hit=%v), want the version-7 embedding", dst, c.Len())
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (overwrites must not grow)", c.Len())
	}
}

func TestClockEvictionSecondChance(t *testing.T) {
	c, err := New(Options{Rows: 2, Staleness: 10})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, c, 1, 1, row(1))
	mustPut(t, c, 2, 1, row(2))
	// Reference node 1 (sets its CLOCK bit); node 2's insert-bit is cleared
	// by the first sweep, so it is the victim.
	dst := make([]float32, 1)
	if !c.Lookup(1, 1, dst) {
		t.Fatal("miss on resident node 1")
	}
	// Clear insert-reference bits with one full sweep: inserting node 3
	// forces eviction. Both have ref=1 from insert, node 1 re-marked by the
	// lookup; the hand sweeps, clears, and takes the first unreferenced.
	mustPut(t, c, 3, 2, row(3))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if !c.Lookup(3, 2, dst) {
		t.Fatal("newly inserted node 3 missing")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// Exactly one of nodes 1/2 survived alongside 3.
	h1 := c.Lookup(1, 2, dst)
	h2 := c.Lookup(2, 2, dst)
	if h1 == h2 {
		t.Fatalf("exactly one of the old entries must survive, got 1=%v 2=%v", h1, h2)
	}
}

func TestReuserMapsHitsToRequests(t *testing.T) {
	c, err := New(Options{Rows: 8, Staleness: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, c, 10, 3, row(1, 0))
	mustPut(t, c, 20, 3, row(0, 1))
	r := NewReuser(c)
	r.Begin(4)

	r.BeginRequest(0)
	if r.Truncate(5) { // not cached
		t.Fatal("uncached node truncated")
	}
	if !r.Truncate(10) { // cached: frontier call 1 of request 0
		t.Fatal("cached node 10 not truncated")
	}
	r.BeginRequest(1)
	if !r.Truncate(20) { // cached: frontier call 0 of request 1
		t.Fatal("cached node 20 not truncated")
	}
	if r.Truncate(10) != true {
		t.Fatal("node 10 must hit again in request 1")
	}

	if r.Hits() != 3 {
		t.Fatalf("Hits = %d, want 3", r.Hits())
	}
	req, loc, emb := r.Hit(0)
	if req != 0 || loc != 1 || emb[0] != 1 {
		t.Fatalf("hit 0 = (%d, %d, %v), want (0, 1, [1 0])", req, loc, emb)
	}
	req, loc, emb = r.Hit(1)
	if req != 1 || loc != 0 || emb[1] != 1 {
		t.Fatalf("hit 1 = (%d, %d, %v), want (1, 0, [0 1])", req, loc, emb)
	}
	req, loc, _ = r.Hit(2)
	if req != 1 || loc != 1 {
		t.Fatalf("hit 2 = (%d, %d), want (1, 1)", req, loc)
	}

	// A new batch clears hit state but reuses buffers.
	r.Begin(5)
	if r.Hits() != 0 {
		t.Fatalf("Hits after Begin = %d, want 0", r.Hits())
	}
}

// TestConcurrentLookupPut runs Lookup and Put from four workers while a
// reader polls Len and Stats (run under -race): the CLOCK eviction and the
// counters must stay consistent under the read/write lock split.
func TestConcurrentLookupPut(t *testing.T) {
	c, err := New(Options{Rows: 64, Staleness: 8})
	if err != nil {
		t.Fatal(err)
	}
	var workers, reader sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			dst := make([]float32, 4)
			emb := []float32{float32(w), 1, 2, 3}
			for i := 0; i < 2000; i++ {
				node := int32((w*31 + i) % 128)
				ver := uint64(i / 10)
				if i%3 == 0 {
					if err := c.Put(node, ver, emb); err != nil {
						t.Error(err)
						return
					}
				} else {
					c.Lookup(node, ver, dst)
				}
			}
		}(w)
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if n := c.Len(); n > 64 {
					t.Errorf("Len = %d above capacity 64", n)
					return
				}
				c.Stats()
			}
		}
	}()
	workers.Wait()
	close(stop)
	reader.Wait()
	if st := c.Stats(); st.Inserts == 0 || st.Lookups == 0 {
		t.Fatalf("workers recorded no traffic: %+v", st)
	}
}

// TestEmbCacheSteadyStateAllocs gates the serving hot path: a warmed
// Lookup hit and a warmed Reuser.Truncate hit allocate nothing.
func TestEmbCacheSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	c, err := New(Options{Rows: 32, Staleness: 4})
	if err != nil {
		t.Fatal(err)
	}
	const dim = 16
	emb := make([]float32, dim)
	for v := int32(0); v < 32; v++ {
		mustPut(t, c, v, 3, emb)
	}
	dst := make([]float32, dim)
	if got := testing.AllocsPerRun(200, func() {
		if !c.Lookup(7, 4, dst) {
			t.Fatal("unexpected miss")
		}
	}); got != 0 {
		t.Fatalf("Lookup hit allocates %.1f/op, want 0", got)
	}

	r := NewReuser(c)
	// Warm: grow the scratch buffer to steady-state size once.
	for i := 0; i < 5; i++ {
		r.Begin(4)
		r.BeginRequest(0)
		for v := int32(0); v < 32; v++ {
			r.Truncate(v)
		}
	}
	if got := testing.AllocsPerRun(200, func() {
		r.Begin(4)
		r.BeginRequest(0)
		for v := int32(0); v < 32; v++ {
			if !r.Truncate(v) {
				t.Fatal("unexpected truncate miss")
			}
		}
	}); got != 0 {
		t.Fatalf("Truncate hit path allocates %.1f/op, want 0", got)
	}

	// Steady-state Put (overwrite of a resident node) is also clean.
	if got := testing.AllocsPerRun(200, func() {
		if err := c.Put(7, 5, emb); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("steady-state Put allocates %.1f/op, want 0", got)
	}
}
