package cache

import (
	"math/rand"
	"sync"
	"testing"
)

// sketchModel mirrors the sequential semantics of a Sketch with a decay
// window: per-node counts, halved every windowth observation (and on
// explicit Decay), exactly as the implementation promises when there is no
// concurrency to perturb the election.
type sketchModel struct {
	counts []uint32
	since  int64
	window int64
}

func (m *sketchModel) observe(v int32) {
	m.counts[v]++
	m.since++
	if m.window > 0 && m.since >= m.window {
		m.decay()
	}
}

func (m *sketchModel) decay() {
	m.since = 0
	for i := range m.counts {
		m.counts[i] /= 2
	}
}

// TestSketchDecayWindowMatchesModel pins the sequential semantics of TTL
// aging: with a decay window configured, every counter tracks the halving
// model exactly — automatic halvings fire on the window boundary and
// explicit Decay calls share the same clock.
func TestSketchDecayWindowMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(16)
		window := int64(1 + r.Intn(32))
		s := NewSketch(n)
		s.SetDecayWindow(window)
		m := &sketchModel{counts: make([]uint32, n), window: window}
		steps := 1 + r.Intn(400)
		for i := 0; i < steps; i++ {
			if r.Intn(20) == 0 {
				s.Decay()
				m.decay()
				continue
			}
			v := int32(r.Intn(n))
			s.Observe(v)
			m.observe(v)
		}
		for v := int32(0); int(v) < n; v++ {
			if got, want := s.Count(v), m.counts[v]; got != want {
				t.Fatalf("trial %d (n=%d window=%d): Count(%d) = %d, model says %d",
					trial, n, window, v, got, want)
			}
		}
	}
}

// TestSketchDecayNeverUndercountsWithinWindow is the property the VIP
// planner depends on: however the halvings land, a node observed k times
// since the most recent halving reports a count of at least k (decay can
// only shed history older than the current window, never live traffic),
// and never more than its all-time observation total.
func TestSketchDecayNeverUndercountsWithinWindow(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(16)
		window := int64(1 + r.Intn(16))
		s := NewSketch(n)
		s.SetDecayWindow(window)
		sinceHalve := make([]uint32, n) // per-node observes since last halving
		allTime := make([]uint32, n)
		var since int64
		halved := func() {
			since = 0
			for i := range sinceHalve {
				sinceHalve[i] = 0
			}
		}
		steps := 1 + r.Intn(300)
		for i := 0; i < steps; i++ {
			if r.Intn(25) == 0 {
				s.Decay()
				halved()
			} else {
				v := int32(r.Intn(n))
				s.Observe(v)
				sinceHalve[v]++
				allTime[v]++
				since++
				if since >= window {
					halved() // the Observe tripped an automatic halving
				}
			}
			for v := int32(0); int(v) < n; v++ {
				got := s.Count(v)
				if got < sinceHalve[v] {
					t.Fatalf("trial %d step %d: Count(%d) = %d undercounts %d observes since last decay",
						trial, i, v, got, sinceHalve[v])
				}
				if got > allTime[v] {
					t.Fatalf("trial %d step %d: Count(%d) = %d exceeds all-time observes %d",
						trial, i, v, got, allTime[v])
				}
			}
		}
	}
}

// TestSketchDecayWindowDisabled pins that a zero (or negative) window keeps
// the pre-TTL behaviour: counts are the raw integrals until an explicit
// Decay.
func TestSketchDecayWindowDisabled(t *testing.T) {
	s := NewSketch(4)
	s.SetDecayWindow(-3) // clamps to 0 = disabled
	for i := 0; i < 100; i++ {
		s.Observe(2)
	}
	if got := s.Count(2); got != 100 {
		t.Fatalf("Count(2) with aging disabled = %d, want 100", got)
	}
	s.Decay()
	if got := s.Count(2); got != 50 {
		t.Fatalf("Count(2) after explicit Decay = %d, want 50", got)
	}
}

// TestSketchDecayConcurrent hammers a decaying sketch from many observers
// (run under -race): the TryLock election must keep the sketch consistent —
// no counter may exceed the per-goroutine observe totals, and total
// observations stay bounded by traffic.
func TestSketchDecayConcurrent(t *testing.T) {
	const (
		workers = 8
		perW    = 2000
		n       = 32
	)
	s := NewSketch(n)
	s.SetDecayWindow(500)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < perW; i++ {
				s.Observe(int32(r.Intn(n)))
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for v := int32(0); v < n; v++ {
		total += int64(s.Count(v))
	}
	if total > workers*perW {
		t.Fatalf("summed counts %d exceed offered traffic %d", total, workers*perW)
	}
	if obs := s.Observations(); obs < 0 || obs > workers*perW {
		t.Fatalf("Observations() = %d out of [0, %d]", obs, workers*perW)
	}
}
