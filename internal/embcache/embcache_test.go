package embcache

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"salient/internal/race"
)

func mustPut[T any](t *testing.T, c *Cache[T], node int32, ver uint64, emb []T) {
	t.Helper()
	if err := c.Put(node, ver, emb); err != nil {
		t.Fatalf("Put(%d, %d): %v", node, ver, err)
	}
}

func row(vals ...float32) []float32 { return vals }

// window is the [now-k, now] range a staleness-k reader asks for.
func window(now, k uint64) (uint64, uint64) { return now - min(now, k), now }

func TestLookupStalenessWindow(t *testing.T) {
	c, err := New[float32](4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dim() != 0 {
		t.Fatalf("Dim before first Put = %d, want 0", c.Dim())
	}
	dst := make([]float32, 2)
	if c.Lookup(7, 3, 5, dst) {
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
		{7, true},  // window boundary (now-v == k)
		{8, false}, // beyond window
		{4, false}, // entry from the future (newer than the pinned view)
	}
	for _, tc := range cases {
		dst[0], dst[1] = 0, 0
		lo, hi := window(tc.now, 2)
		got := c.Lookup(7, lo, hi, dst)
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

// TestStalenessZeroNeverServes: a reuser with window 0 asks for an empty
// version range, so even a same-version entry is never served, while every
// lookup is still counted.
func TestStalenessZeroNeverServes(t *testing.T) {
	c, err := New[float32](4)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, c, 1, 3, row(9))
	r := NewReuser(c, 0)
	for now := uint64(0); now < 6; now++ {
		r.Begin(now)
		if r.Truncate(1) {
			t.Fatalf("staleness 0 served a hit at now=%d", now)
		}
	}
	if st := c.Stats(); st.Lookups != 6 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 6 lookups and no hit", st)
	}
}

func TestPutOverwriteNewerWins(t *testing.T) {
	c, err := New[float32](2)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, c, 1, 5, row(5))
	mustPut(t, c, 1, 7, row(7)) // newer overwrites
	mustPut(t, c, 1, 6, row(6)) // older is discarded
	dst := make([]float32, 1)
	if !c.Lookup(1, 0, 8, dst) || dst[0] != 7 {
		t.Fatalf("got %v (hit=%v), want the version-7 embedding", dst, c.Len())
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (overwrites must not grow)", c.Len())
	}
}

func TestClockEvictionSecondChance(t *testing.T) {
	c, err := New[float32](2)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, c, 1, 1, row(1))
	mustPut(t, c, 2, 1, row(2))
	// Reference node 1 (sets its CLOCK bit); node 2's insert-bit is cleared
	// by the first sweep, so it is the victim.
	dst := make([]float32, 1)
	if !c.Lookup(1, 0, 1, dst) {
		t.Fatal("miss on resident node 1")
	}
	// Clear insert-reference bits with one full sweep: inserting node 3
	// forces eviction. Both have ref=1 from insert, node 1 re-marked by the
	// lookup; the hand sweeps, clears, and takes the first unreferenced.
	mustPut(t, c, 3, 2, row(3))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if !c.Lookup(3, 0, 2, dst) {
		t.Fatal("newly inserted node 3 missing")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// Exactly one of nodes 1/2 survived alongside 3.
	h1 := c.Lookup(1, 0, 2, dst)
	h2 := c.Lookup(2, 0, 2, dst)
	if h1 == h2 {
		t.Fatalf("exactly one of the old entries must survive, got 1=%v 2=%v", h1, h2)
	}
}

func TestReuserMapsHitsToRequests(t *testing.T) {
	c, err := New[float32](8)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, c, 10, 3, row(1, 0))
	mustPut(t, c, 20, 3, row(0, 1))
	r := NewReuser(c, 4)
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
	c, err := New[float32](64)
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
					lo, hi := window(ver, 8)
					c.Lookup(node, lo, hi, dst)
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
// Lookup hit and a warmed Reuser.Truncate hit allocate nothing, at both
// instantiations the servers use (float32 embeddings, int32 memo labels).
func TestEmbCacheSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	c, err := New[float32](32)
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
		if !c.Lookup(7, 0, 4, dst) {
			t.Fatal("unexpected miss")
		}
	}); got != 0 {
		t.Fatalf("Lookup hit allocates %.1f/op, want 0", got)
	}

	r := NewReuser(c, 4)
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

	// The memo: a warm exact-version hit and an overwriting Put, each
	// with the label in a one-element stack array as the fleet passes it.
	m, err := New[int32](8)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, m, 3, 2, []int32{9})
	if got := testing.AllocsPerRun(200, func() {
		var label [1]int32
		if !m.Lookup(3, 2, 2, label[:]) || label[0] != 9 {
			t.Fatal("unexpected memo miss")
		}
	}); got != 0 {
		t.Fatalf("memo Lookup hit allocates %.1f/op, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := m.Put(3, 2, []int32{9}); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("memo overwriting Put allocates %.1f/op, want 0", got)
	}
}

// TestMemoExactVersionHit: asked for exactly one version, the table
// serves only an answer computed at that version; an older entry counts
// as stale and stays resident until a Put replaces it.
func TestMemoExactVersionHit(t *testing.T) {
	c, err := New[int32](8)
	if err != nil {
		t.Fatal(err)
	}
	label := make([]int32, 1)
	if c.Lookup(5, 0, 0, label) {
		t.Fatal("empty table hit")
	}
	mustPut(t, c, 5, 0, []int32{42})
	if !c.Lookup(5, 0, 0, label) || label[0] != 42 {
		t.Fatalf("Lookup(5, [0, 0]) = %d; want a hit of 42", label[0])
	}
	if c.Lookup(5, 1, 1, label) {
		t.Fatal("version-0 entry hit at version 1")
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d, want the stale entry still resident", c.Len())
	}
	if st := c.Stats(); st.Lookups != 3 || st.Hits != 1 || st.Stale != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestMemoPutReplaces: a newer answer for a node replaces the old one in
// place.
func TestMemoPutReplaces(t *testing.T) {
	c, err := New[int32](4)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, c, 1, 0, []int32{10})
	mustPut(t, c, 1, 1, []int32{11})
	label := make([]int32, 1)
	if !c.Lookup(1, 1, 1, label) || label[0] != 11 {
		t.Fatalf("Lookup(1, [1, 1]) = %d; want a hit of 11", label[0])
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d after replacing put", c.Len())
	}
}

// TestMemoCapacityAndClock: inserts past capacity evict by CLOCK, and the
// table never grows past its rows.
func TestMemoCapacityAndClock(t *testing.T) {
	c, err := New[int32](4)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 4; v++ {
		mustPut(t, c, v, 0, []int32{v})
	}
	// Reference node 0 so CLOCK prefers other victims.
	if !c.Lookup(0, 0, 0, make([]int32, 1)) {
		t.Fatal("node 0 missing")
	}
	for v := int32(10); v < 20; v++ {
		mustPut(t, c, v, 0, []int32{v})
		if c.Len() > 4 {
			t.Fatalf("table grew past capacity: %d", c.Len())
		}
	}
	if c.Len() != 4 {
		t.Fatalf("Len() = %d, want full capacity 4", c.Len())
	}
}

// TestTableMatchesMapModel drives random Put/Lookup sequences against a
// map of each node's newest Put, at both instantiations. Every hit must
// return the model's row, computed at a version inside the asked range;
// Len never exceeds the capacity. With room for every node nothing is
// evicted, so the model is exact: a lookup hits iff the model's version
// lies in range, and Puts may arrive out of version order (the older one
// must not overwrite). With less room, versions come from a clock that
// only advances, so whatever CLOCK keeps is still the newest Put.
func TestTableMatchesMapModel(t *testing.T) {
	t.Run("float32", func(t *testing.T) {
		checkAgainstModel(t, 4, func(node int32, seq int, k int) float32 { return float32(seq*7+k) + float32(node)/64 })
	})
	t.Run("int32", func(t *testing.T) {
		checkAgainstModel(t, 1, func(node int32, seq int, _ int) int32 { return int32(seq)<<8 | node })
	})
}

func checkAgainstModel[T comparable](t *testing.T, dim int, val func(node int32, seq, k int) T) {
	type entry struct {
		version uint64
		row     []T
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nodes := 1 + r.Intn(24)
		rows := 1 + r.Intn(nodes)
		exact := trial%2 == 0
		if exact {
			rows = nodes + r.Intn(4)
		}
		c, err := New[T](rows)
		if err != nil {
			t.Fatal(err)
		}
		model := map[int32]entry{}
		var clock uint64
		dst := make([]T, dim)
		for seq := 0; seq < 400; seq++ {
			node := int32(r.Intn(nodes))
			if r.Intn(2) == 0 {
				version := clock
				if exact {
					version = uint64(r.Intn(8))
				} else if r.Intn(4) == 0 {
					clock++
					version = clock
				}
				row := make([]T, dim)
				for k := range row {
					row[k] = val(node, seq, k)
				}
				mustPut(t, c, node, version, row)
				if e, ok := model[node]; !ok || version >= e.version {
					model[node] = entry{version, row}
				}
			} else {
				oldest := uint64(r.Intn(9))
				newest := oldest + uint64(r.Intn(4))
				if r.Intn(8) == 0 {
					oldest = newest + 1 // the empty range
				}
				e, ok := model[node]
				want := ok && e.version >= oldest && e.version <= newest
				got := c.Lookup(node, oldest, newest, dst)
				if got && !want {
					t.Fatalf("trial %d seq %d: node %d hit in [%d, %d], model holds %+v (present %v)",
						trial, seq, node, oldest, newest, e, ok)
				}
				if got && !slices.Equal(dst, e.row) {
					t.Fatalf("trial %d seq %d: node %d hit returned %v, newest Put was %v", trial, seq, node, dst, e.row)
				}
				if exact && want && !got {
					t.Fatalf("trial %d seq %d: node %d missed in [%d, %d] with no eviction possible, model holds %+v",
						trial, seq, node, oldest, newest, e)
				}
			}
			if n := c.Len(); n > rows {
				t.Fatalf("trial %d: Len %d above capacity %d", trial, n, rows)
			}
		}
	}
}
