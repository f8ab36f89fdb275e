package serve

import (
	"errors"
	"testing"
	"time"

	"salient/internal/race"
)

// TestPredictReqExpiredDeadlineShedsBeforeEnqueue: a request already past
// its deadline is refused without being queued, with full context.
func TestPredictReqExpiredDeadlineShedsBeforeEnqueue(t *testing.T) {
	ds, tr := fitted(t)
	s, err := New(tr.Model, ds, Options{Fanouts: serveFanouts, Seed: serveSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	node := ds.Test[0]
	_, err = s.PredictReq(Request{Node: node, Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired deadline returned %v, want ErrDeadline", err)
	}
	var re *RequestError
	if !errors.As(err, &re) {
		t.Fatalf("error %T lacks per-request context", err)
	}
	if re.Node != node || !re.HasDeadline || re.Remaining >= 0 {
		t.Fatalf("request context = %+v; want node %d, deadline held, negative remaining", re, node)
	}
	st := s.Stats()
	if st.DeadlineSheds != 1 {
		t.Fatalf("DeadlineSheds = %d, want 1", st.DeadlineSheds)
	}
	if st.Submitted != 0 {
		t.Fatalf("Submitted = %d; an expired request must never enqueue", st.Submitted)
	}
}

// TestEstimateServiceTime: zero before any answer (admit on no-signal),
// positive and window-bounded after traffic, zeroed by ResetStats.
func TestEstimateServiceTime(t *testing.T) {
	ds, tr := fitted(t)
	s, err := New(tr.Model, ds, Options{Fanouts: serveFanouts, Seed: serveSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if est := s.EstimateServiceTime(); est != 0 {
		t.Fatalf("estimate before any traffic = %v, want 0", est)
	}
	for _, v := range ds.Test[:12] {
		if _, err := submit(s, v); err != nil {
			t.Fatal(err)
		}
	}
	est := s.EstimateServiceTime()
	if est <= 0 {
		t.Fatalf("estimate after traffic = %v, want > 0", est)
	}
	if max := s.Stats().Latency.Max; est > time.Duration(max*float64(time.Second))+time.Millisecond {
		t.Fatalf("p95 estimate %v exceeds observed max latency %.3fs", est, max)
	}
	s.ResetStats()
	if est := s.EstimateServiceTime(); est != 0 {
		t.Fatalf("estimate after ResetStats = %v, want 0", est)
	}
}

// TestServiceEstimateFollowsRecentAnswers: the service window forgets old
// answers. After 300 slow answers and then 512 fast ones, both halves of the
// window hold only fast answers, so the p95 estimate is the fast latency;
// reading it allocates nothing, and ResetStats zeroes it.
func TestServiceEstimateFollowsRecentAnswers(t *testing.T) {
	ds, tr := fitted(t)
	s, err := New(tr.Model, ds, Options{Fanouts: serveFanouts, Seed: serveSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	record := func(n int, lat time.Duration) {
		s.statsMu.Lock()
		defer s.statsMu.Unlock()
		for i := 0; i < n; i++ {
			s.recordLatency(lat.Seconds())
		}
	}
	record(300, 10*time.Millisecond)
	if est := s.EstimateServiceTime(); est < 9*time.Millisecond {
		t.Fatalf("estimate after 300 slow answers = %v, want about 10ms", est)
	}
	record(512, time.Millisecond)
	if est := s.EstimateServiceTime(); est > time.Millisecond {
		t.Fatalf("estimate after 512 fast answers = %v, want <= 1ms (slow answers forgotten)", est)
	}
	if got := s.Stats().Latency.Count; got != 812 {
		t.Fatalf("lifetime latency count = %d, want all 812 answers", got)
	}
	if !race.Enabled {
		if a := testing.AllocsPerRun(100, func() { s.EstimateServiceTime() }); a != 0 {
			t.Fatalf("EstimateServiceTime allocates %v per call, want 0", a)
		}
	}
	s.ResetStats()
	if est := s.EstimateServiceTime(); est != 0 {
		t.Fatalf("estimate after ResetStats = %v, want 0", est)
	}
}

// TestQueueIntrospection pins the admission-signal accessors the fleet's
// priority admission reads.
func TestQueueIntrospection(t *testing.T) {
	ds, tr := fitted(t)
	s, err := New(tr.Model, ds, Options{Fanouts: serveFanouts, Seed: serveSeed, QueueCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.QueueCap(); got != 100 {
		t.Fatalf("QueueCap() = %d, want exactly QueueCapacity 100", got)
	}
	if got := s.QueueDepth(); got != 0 {
		t.Fatalf("QueueDepth() on idle server = %d, want 0", got)
	}
}
