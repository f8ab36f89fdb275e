package cache

import (
	"math/rand"
	"sync"
	"testing"
)

// TestSketchDecayHalves pins that counts are the raw integrals until an
// explicit Decay, which halves them.
func TestSketchDecayHalves(t *testing.T) {
	s := NewSketch(4)
	for i := 0; i < 100; i++ {
		s.Observe(2)
	}
	if got := s.Count(2); got != 100 {
		t.Fatalf("Count(2) before Decay = %d, want 100", got)
	}
	s.Decay()
	if got := s.Count(2); got != 50 {
		t.Fatalf("Count(2) after explicit Decay = %d, want 50", got)
	}
}

// TestSketchDecayConcurrent races explicit Decay calls, as placement
// refreshes make them, against many observers (run under -race): the
// sketch must stay consistent — the summed counts never exceed the offered
// traffic, and total observations stay bounded by it.
func TestSketchDecayConcurrent(t *testing.T) {
	const (
		workers = 8
		perW    = 2000
		n       = 32
	)
	s := NewSketch(n)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	decayed := make(chan struct{})
	go func() {
		defer close(decayed)
		for {
			select {
			case <-stop:
				return
			default:
				s.Decay()
			}
		}
	}()
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
	close(stop)
	<-decayed
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
