package fleet

import (
	"math"
	"testing"
)

// homes maps every key in [0, m) to its ring home.
func homes(r *Ring, m int) []int {
	out := make([]int, m)
	for k := 0; k < m; k++ {
		out[k] = r.Home(keyHash(int32(k)))
	}
	return out
}

// TestRingMinimalRemapOnJoin pins consistent hashing's defining property:
// adding one replica to an n-replica ring moves only the keys the
// newcomer takes over — about K/(n+1) of them, never more than a small
// multiple — and every moved key moves TO the newcomer (no collateral
// shuffling between survivors).
func TestRingMinimalRemapOnJoin(t *testing.T) {
	const keys = 20000
	for _, n := range []int{2, 3, 5, 8} {
		r := NewRing(0)
		for i := 0; i < n; i++ {
			if err := r.Add(i); err != nil {
				t.Fatal(err)
			}
		}
		before := homes(r, keys)
		if err := r.Add(n); err != nil {
			t.Fatal(err)
		}
		after := homes(r, keys)
		moved := 0
		for k := range before {
			if before[k] != after[k] {
				moved++
				if after[k] != n {
					t.Fatalf("n=%d: key %d moved %d -> %d, not to the new replica %d",
						n, k, before[k], after[k], n)
				}
			}
		}
		// Expectation is keys/(n+1); allow 2x for vnode placement variance.
		bound := 2 * keys / (n + 1)
		if moved == 0 || moved > bound {
			t.Fatalf("n=%d: join moved %d of %d keys (expect ~%d, bound %d)",
				n, moved, keys, keys/(n+1), bound)
		}
	}
}

// TestRingRemoveRemapsOnlyRemoved is the leave-side dual: removing a
// replica moves exactly its keys (to survivors) and nothing else.
func TestRingRemoveRemapsOnlyRemoved(t *testing.T) {
	const keys = 20000
	const n = 5
	r := NewRing(0)
	for i := 0; i < n; i++ {
		if err := r.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	before := homes(r, keys)
	const victim = 2
	r.Remove(victim)
	after := homes(r, keys)
	for k := range before {
		if before[k] == victim {
			if after[k] == victim {
				t.Fatalf("key %d still homed on removed replica %d", k, victim)
			}
		} else if after[k] != before[k] {
			t.Fatalf("key %d not owned by the removed replica moved %d -> %d", k, before[k], after[k])
		}
	}
	owners := map[int]bool{}
	for _, h := range after {
		owners[h] = true
	}
	if len(owners) != n-1 {
		t.Fatalf("%d replicas own keys after removing one of %d", len(owners), n)
	}
}

// TestRingBalance checks vnode smoothing: with DefaultVNodes, no replica
// owns more than ~2x its fair share of a uniform key population.
func TestRingBalance(t *testing.T) {
	const keys = 50000
	for _, n := range []int{2, 4, 8} {
		r := NewRing(0)
		for i := 0; i < n; i++ {
			if err := r.Add(i); err != nil {
				t.Fatal(err)
			}
		}
		counts := make([]int, n)
		for _, h := range homes(r, keys) {
			counts[h]++
		}
		fair := keys / n
		for i, c := range counts {
			if c > 2*fair {
				t.Fatalf("n=%d: replica %d owns %d keys, fair share %d (counts %v)", n, i, c, fair, counts)
			}
			if c == 0 {
				t.Fatalf("n=%d: replica %d owns no keys", n, i)
			}
		}
	}
}

// TestRingWalkVisitsAllDistinct pins Walk's contract: starting at the
// key's home, every member exactly once.
func TestRingWalkVisitsAllDistinct(t *testing.T) {
	const n = 6
	r := NewRing(0)
	for i := 0; i < n; i++ {
		if err := r.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	for k := int32(0); k < 100; k++ {
		key := keyHash(k)
		var order []int
		r.Walk(key, func(i int) bool {
			order = append(order, i)
			return false
		})
		if len(order) != n {
			t.Fatalf("key %d: walk visited %v, want all %d members", k, order, n)
		}
		if order[0] != r.Home(key) {
			t.Fatalf("key %d: walk started at %d, home is %d", k, order[0], r.Home(key))
		}
		seen := map[int]bool{}
		for _, i := range order {
			if seen[i] {
				t.Fatalf("key %d: walk revisited replica %d (%v)", k, i, order)
			}
			seen[i] = true
		}
	}
}

// TestRingBoundedLoadBalance simulates the router's bounded-load rule over
// a single-hot-key workload — the adversarial case for pure affinity,
// where one replica would take 100% of the load — and pins the CHWBL
// guarantee: at every step, no replica's load exceeds
// ceil(c * (assigned+1) / n).
func TestRingBoundedLoadBalance(t *testing.T) {
	const n = 4
	const c = 1.25
	const requests = 10000
	r := NewRing(0)
	for i := 0; i < n; i++ {
		if err := r.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	load := make([]int64, n)
	hot := keyHash(7) // every request targets one key
	var total int64
	for i := 0; i < requests; i++ {
		bound := int64(math.Ceil(c * float64(total+1) / n))
		chosen := -1
		r.Walk(hot, func(i int) bool {
			if load[i] < bound {
				chosen = i
				return true
			}
			return false
		})
		if chosen < 0 {
			t.Fatalf("step %d: no replica under bound %d (loads %v)", i, bound, load)
		}
		load[chosen]++
		total++
		for rep, l := range load {
			if l > bound {
				t.Fatalf("step %d: replica %d load %d exceeds bound %d", i, rep, l, bound)
			}
		}
	}
	// The hot key's load must actually have spread: every replica carries
	// some of it, and the home carries at most ~c/n + slack of the total.
	for rep, l := range load {
		if l == 0 {
			t.Fatalf("replica %d took none of the hot key's load (%v)", rep, load)
		}
		if float64(l) > c*float64(requests)/n+1 {
			t.Fatalf("replica %d load %d exceeds c/n share %f", rep, l, c*float64(requests)/n)
		}
	}
}

// TestRingAddDuplicate pins the double-membership guard.
func TestRingAddDuplicate(t *testing.T) {
	r := NewRing(8)
	if err := r.Add(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(1); err == nil {
		t.Fatal("adding replica 1 twice succeeded")
	}
}

// TestRouteBoundedLoad pins Fleet.route's bounded-load spill with in-flight
// counts set by hand. With LoadFactor c > 1 a home at or above
// ceil(c·(total+1)/n) is skipped for its first ring successor under the
// bound. With every replica on the ring some replica is always under it (n
// replicas at the bound would hold more than the total), so the
// fall-back-to-home case drains a replica off the ring: its share still
// counts in n, and every ring member can then be at the bound.
func TestRouteBoundedLoad(t *testing.T) {
	const n = 4
	f := &Fleet{opts: Options{LoadFactor: 1.5}, ring: NewRing(0)}
	for i := 0; i < n; i++ {
		if err := f.ring.Add(i); err != nil {
			t.Fatal(err)
		}
		f.reps = append(f.reps, &replica{})
	}
	const node = 7
	var order []int // the home, then its ring successors
	f.ring.Walk(keyHash(node), func(i int) bool {
		order = append(order, i)
		return false
	})
	if len(order) != n || order[0] != f.ring.Home(keyHash(node)) {
		t.Fatalf("walk %v does not start at the home of %d replicas", order, n)
	}
	load := func(byOrder []int64) {
		for j, l := range byOrder {
			f.reps[order[j]].inflight.Store(l)
		}
	}

	for _, tc := range []struct {
		loads []int64 // in walk order: home first
		want  int     // index into order
	}{
		{[]int64{0, 0, 0, 0}, 0}, // bound ceil(1.5·1/4) = 1: the home
		{[]int64{2, 1, 1, 1}, 0}, // bound ceil(1.5·6/4) = 3: home under it
		{[]int64{2, 0, 0, 0}, 1}, // bound ceil(1.5·3/4) = 2: home at it
		{[]int64{3, 0, 0, 0}, 1}, // bound ceil(1.5·4/4) = 2: home over it
		{[]int64{3, 3, 0, 0}, 2}, // bound ceil(1.5·7/4) = 3: home and successor at it
	} {
		load(tc.loads)
		if got := f.route(node); got != order[tc.want] {
			t.Errorf("loads %v (walk order %v): routed to %d, want %d", tc.loads, order, got, order[tc.want])
		}
	}

	// Drain the last replica in the walk. With c = 1.1 and loads 3, 3, 3
	// (+0 drained) the bound is ceil(1.1·10/4) = 3: every ring member is
	// at it, and the request falls back to the home.
	f.ring.Remove(order[n-1])
	f.opts.LoadFactor = 1.1
	load([]int64{3, 3, 3, 0})
	if got := f.route(node); got != order[0] {
		t.Fatalf("every ring member at the bound: routed to %d, want the home %d", got, order[0])
	}
}
