package serve

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/half"
	"salient/internal/infer"
	"salient/internal/partition"
	"salient/internal/store"
	"salient/internal/train"
)

// fitted trains a small model once per test binary; the serving tests all
// read from it concurrently through the server's own synchronization.
var fittedOnce struct {
	sync.Once
	ds  *dataset.Dataset
	tr  *train.Trainer
	err error
}

func fitted(t testing.TB) (*dataset.Dataset, *train.Trainer) {
	t.Helper()
	fittedOnce.Do(func() {
		ds, err := dataset.Load(dataset.Arxiv, 0.05)
		if err != nil {
			fittedOnce.err = err
			return
		}
		tr, err := train.New(ds, train.Config{
			Arch: "SAGE", Hidden: 32, Layers: 2, Fanouts: []int{10, 5},
			BatchSize: 128, LR: 5e-3, Workers: 2, Seed: 3,
		})
		if err != nil {
			fittedOnce.err = err
			return
		}
		if _, err := tr.Fit(2); err != nil {
			fittedOnce.err = err
			return
		}
		fittedOnce.ds, fittedOnce.tr = ds, tr
	})
	if fittedOnce.err != nil {
		t.Fatal(fittedOnce.err)
	}
	return fittedOnce.ds, fittedOnce.tr
}

const serveSeed = 7

var serveFanouts = []int{10, 5}

// TestNewRejectsFanoutLayerMismatch: a server needs one fanout per model
// layer. With too few, every worker's forward would index past the MFG's
// blocks and panic; with too many, it would answer from a partly used MFG.
func TestNewRejectsFanoutLayerMismatch(t *testing.T) {
	ds, tr := fitted(t)
	for _, fanouts := range [][]int{{5}, {5, 5, 5}} {
		s, err := New(tr.Model, ds, Options{Fanouts: fanouts, Workers: 1})
		if err == nil {
			s.Close()
			t.Errorf("fanouts %v accepted for a %d-layer model", fanouts, tr.Model.Layers())
		}
	}
}

// singleShot computes the ground truth the server must match: one-shot
// infer.Sampled on each node alone, with the server's seed and fanouts.
func singleShot(t testing.TB, nodes []int32) map[int32]int32 {
	t.Helper()
	ds, tr := fitted(t)
	want := make(map[int32]int32, len(nodes))
	for _, v := range nodes {
		if _, ok := want[v]; ok {
			continue
		}
		pred, err := infer.Sampled(tr.Model, ds, []int32{v}, infer.Options{
			Fanouts: serveFanouts, BatchSize: 1, Workers: 1, Seed: serveSeed,
		})
		if err != nil {
			t.Fatalf("infer.Sampled(%d): %v", v, err)
		}
		want[v] = pred[0]
	}
	return want
}

// submit asks s for node's label through its one entry point.
func submit(s Submitter, node int32) (int32, error) {
	p, err := s.PredictReq(Request{Node: node})
	return p.Label, err
}

func TestSubmitMatchesSingleShotInference(t *testing.T) {
	ds, tr := fitted(t)
	nodes := ds.Test[:50]
	want := singleShot(t, nodes)

	s, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 3, MaxBatch: 8, Seed: serveSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Sequential submissions: whatever micro-batches form, every answer must
	// equal the singleton ground truth.
	for _, v := range nodes {
		got, err := submit(s, v)
		if err != nil {
			t.Fatalf("Submit(%d): %v", v, err)
		}
		if got != want[v] {
			t.Fatalf("Submit(%d) = %d, want %d (single-shot infer.Sampled)", v, got, want[v])
		}
	}
}

func TestConcurrentSubmittersDeterministic(t *testing.T) {
	ds, tr := fitted(t)
	nodes := ds.Test[:32]
	want := singleShot(t, nodes)

	s, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 4, MaxBatch: 16,
		QueueCapacity: 4096, Seed: serveSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// 64 submitters × 8 requests each, all hammering the same node set so
	// coalescing mixes them arbitrarily across micro-batches.
	const submitters, perSubmitter = 64, 8
	errs := make(chan error, submitters)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				v := nodes[(g*perSubmitter+i)%len(nodes)]
				got, err := submit(s, v)
				if err != nil {
					errs <- err
					return
				}
				if got != want[v] {
					errs <- errors.New("prediction mismatch under concurrency")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Served != submitters*perSubmitter {
		t.Fatalf("served %d, want %d", st.Served, submitters*perSubmitter)
	}
	if st.Latency.Count != int(st.Served) {
		t.Fatalf("latency samples %d != served %d", st.Latency.Count, st.Served)
	}
	if st.Batches == 0 || st.Occupancy.Count != int(st.Batches) {
		t.Fatalf("occupancy samples %d vs batches %d", st.Occupancy.Count, st.Batches)
	}
	if st.Occupancy.Max > 16 {
		t.Fatalf("occupancy max %v, want at most MaxBatch=16", st.Occupancy.Max)
	}
}

// enqueue queues a request in-package, counted as Submit counts it, without
// waiting for its answer.
func enqueue(t *testing.T, s *Server, v int32, done chan result) *request {
	t.Helper()
	req := &request{node: v, enq: time.Now(), done: done}
	s.statsMu.Lock()
	s.submitted++
	s.statsMu.Unlock()
	select {
	case s.reqs <- req:
	default:
		t.Fatalf("queue refused node %d", v)
	}
	return req
}

// holdWorker queues a blocker whose unbuffered done channel holds the worker
// that takes it in delivery until the test reads the answer, and returns
// once that worker has closed the blocker's micro-batch (it counts a batch
// only after draining the queue into it). With Workers: 1, whatever is
// queued next waits behind the blocker, whatever the Go scheduler does: on
// one processor a closed-loop submitter can otherwise be served before the
// next one runs, and no backlog ever forms. Waiting only for the queue to
// empty is not enough: requests queued while the worker drains would join
// the blocker's batch.
func holdWorker(t *testing.T, s *Server, v int32) *request {
	t.Helper()
	batches := func() int64 {
		s.statsMu.Lock()
		defer s.statsMu.Unlock()
		return s.batches
	}
	before := batches()
	blocker := enqueue(t, s, v, make(chan result))
	for deadline := time.Now().Add(30 * time.Second); batches() == before; {
		if time.Now().After(deadline) {
			t.Fatal("worker never took the blocking request")
		}
		time.Sleep(time.Millisecond)
	}
	return blocker
}

// expectAnswers reads each request's answer and fails unless it is the
// single-shot label.
func expectAnswers(t *testing.T, want map[int32]int32, reqs ...*request) {
	t.Helper()
	for _, req := range reqs {
		res := <-req.done
		if res.err != nil || res.label != want[req.node] {
			t.Fatalf("node %d: label %d, err %v; want %d (single-shot infer.Sampled)", req.node, res.label, res.err, want[req.node])
		}
	}
}

// TestBacklogCoalesces: drain-only batching never waits, but requests that
// are already queued when a worker comes free merge into shared
// micro-batches, and each still gets its single-shot answer. The backlog
// queues behind a blocker holding the only worker, so the check does not
// depend on scheduling.
func TestBacklogCoalesces(t *testing.T) {
	ds, tr := fitted(t)
	nodes := ds.Test[:32]
	want := singleShot(t, nodes)

	s, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 1, MaxBatch: 16,
		QueueCapacity: 4096, Seed: serveSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	reqs := []*request{holdWorker(t, s, nodes[0])}
	for _, v := range nodes {
		reqs = append(reqs, enqueue(t, s, v, make(chan result, 1)))
	}
	expectAnswers(t, want, reqs...)
	if st := s.Stats(); st.Occupancy.Max <= 1 || st.Occupancy.Max > 16 {
		t.Fatalf("occupancy max %v, want in (1, MaxBatch=16]: a backlog must coalesce", st.Occupancy.Max)
	}
}

// TestCloseDrainsQueuedRequests: Close stops admission at once, yet every
// request already queued is answered — the worker drains the closed queue
// before it exits — and no goroutine the server started outlives it.
func TestCloseDrainsQueuedRequests(t *testing.T) {
	ds, tr := fitted(t)
	nodes := ds.Test[:11]
	want := singleShot(t, nodes)
	base := runtime.NumGoroutine()

	s, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 1, MaxBatch: 4,
		QueueCapacity: len(nodes) - 1, Seed: serveSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []*request{holdWorker(t, s, nodes[0])}
	for _, v := range nodes[1:] {
		reqs = append(reqs, enqueue(t, s, v, make(chan result, 1)))
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	// The queue is full, so Submit rejects without blocking until Close
	// stops admission; from then on it reports ErrClosed.
	for {
		_, err := submit(s, nodes[0])
		if errors.Is(err, ErrClosed) {
			break
		}
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("Submit while closing: %v, want ErrSaturated or ErrClosed", err)
		}
		time.Sleep(time.Millisecond)
	}
	expectAnswers(t, want, reqs...)
	<-closed
	if _, err := submit(s, nodes[1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if st := s.Stats(); st.Submitted != int64(len(nodes)) || st.Served != int64(len(nodes)) {
		t.Fatalf("stats {submitted %d, served %d}, want %d of each", st.Submitted, st.Served, len(nodes))
	}
	assertGoroutinesSettle(t, base)
}

// TestClosedLoopPaysNoBatchingWindow: a worker closes a micro-batch as soon
// as the queue is empty, so one sequential client never waits for company.
// The deprecated MaxDelay is set to a full second to show it is ignored; a
// server that held batches open for it would take a second per request.
func TestClosedLoopPaysNoBatchingWindow(t *testing.T) {
	ds, tr := fitted(t)
	s, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 2, MaxBatch: 16, Seed: serveSeed,
		MaxDelay: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, v := range ds.Test[:20] {
		if _, err := submit(s, v); err != nil {
			t.Fatalf("Submit(%d): %v", v, err)
		}
	}
	st := s.Stats()
	if st.Served != 20 {
		t.Fatalf("served %d, want 20", st.Served)
	}
	if worst := time.Duration(st.Latency.Max * float64(time.Second)); worst >= 250*time.Millisecond {
		t.Fatalf("latency max %v for a sequential client: the worker waited on an empty queue", worst)
	}
}

// TestStatsNeverServedBeforeSubmitted: a request is counted as submitted
// before any worker can see it, so no snapshot taken under load reports
// more answers than accepted requests.
func TestStatsNeverServedBeforeSubmitted(t *testing.T) {
	ds, tr := fitted(t)
	nodes := ds.Test[:32]
	s, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 2, MaxBatch: 8, QueueCapacity: 8, Seed: serveSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const submitters, perSubmitter = 8, 32
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				if _, err := submit(s, nodes[(g+i)%len(nodes)]); err != nil && !errors.Is(err, ErrSaturated) {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Keep polling until the submitters finish, so a violation is reported
	// only after no goroutine can still call t.Errorf.
	var bad Stats
	violated := false
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		if st := s.Stats(); st.Served > st.Submitted && !violated {
			bad, violated = st, true
		}
	}
	if violated {
		t.Fatalf("snapshot under load: served %d > submitted %d", bad.Served, bad.Submitted)
	}
	st := s.Stats()
	if st.Submitted+st.Rejected != submitters*perSubmitter || st.Served != st.Submitted {
		t.Fatalf("final stats: submitted %d + rejected %d != %d, or served %d != submitted",
			st.Submitted, st.Rejected, submitters*perSubmitter, st.Served)
	}
}

// TestSaturationRejectsWithoutDeadlock: a full queue rejects with
// ErrSaturated, every accepted request is still answered correctly, and a
// server flooded by far more submitters than slots neither deadlocks nor
// miscounts.
//
// The rejection leg fills the queue in-package behind a blocker holding the
// only worker (holdWorker), so it does not depend on scheduling.
func TestSaturationRejectsWithoutDeadlock(t *testing.T) {
	ds, tr := fitted(t)
	nodes := ds.Test[:16]
	want := singleShot(t, nodes)

	t.Run("full ring rejects", func(t *testing.T) {
		s, err := New(tr.Model, ds, Options{
			Fanouts: serveFanouts, Workers: 1, MaxBatch: 1,
			QueueCapacity: 2, Seed: serveSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		blocker := holdWorker(t, s, nodes[0])
		accepted := []*request{blocker, enqueue(t, s, nodes[1], make(chan result, 1)), enqueue(t, s, nodes[2], make(chan result, 1))}
		if _, err := s.PredictReq(Request{Node: nodes[3]}); !errors.Is(err, ErrSaturated) {
			t.Fatalf("PredictReq on a full 2-slot queue: err %v, want ErrSaturated", err)
		}
		expectAnswers(t, want, accepted...)
		if st := s.Stats(); st.Rejected != 1 || st.Served != 3 || st.Submitted != 3 {
			t.Fatalf("stats {submitted %d, rejected %d, served %d}, want {3, 1, 3}", st.Submitted, st.Rejected, st.Served)
		}
	})

	// A two-slot queue and one worker against 32 hot submitters: every
	// accepted request must be answered correctly — no deadlock, no wrong
	// rows — and the counters must match what the submitters observed.
	s, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 1, MaxBatch: 4,
		QueueCapacity: 2, Seed: serveSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const submitters, perSubmitter = 32, 16
	var rejected, served int64
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perSubmitter; i++ {
					v := nodes[(g+i)%len(nodes)]
					got, err := submit(s, v)
					mu.Lock()
					switch {
					case errors.Is(err, ErrSaturated):
						rejected++
					case err != nil:
						mu.Unlock()
						t.Errorf("Submit(%d): %v", v, err)
						return
					case got != want[v]:
						mu.Unlock()
						t.Errorf("Submit(%d) = %d, want %d", v, got, want[v])
						return
					default:
						served++
					}
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("saturated server deadlocked")
	}

	if served == 0 {
		t.Fatal("every request rejected; server made no progress")
	}
	st := s.Stats()
	if st.Rejected != rejected || st.Served != served {
		t.Fatalf("stats {rejected %d, served %d} disagree with observed {%d, %d}",
			st.Rejected, st.Served, rejected, served)
	}
}

func TestCacheAccounting(t *testing.T) {
	ds, tr := fitted(t)
	s, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 2, MaxBatch: 8, Seed: serveSeed,
		CacheRows: int(ds.G.N) / 4, CachePolicy: cache.StaticDegree,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Test[:64] {
		if _, err := submit(s, v); err != nil {
			t.Fatalf("Submit(%d): %v", v, err)
		}
	}
	s.Close()
	st := s.Stats()
	if st.CacheLookups == 0 {
		t.Fatal("cache enabled but no lookups recorded")
	}
	if st.CacheHits == 0 {
		t.Fatal("quarter-graph static-degree cache recorded zero hits")
	}
	if st.BytesSaved == 0 || st.BytesTransferred == 0 {
		t.Fatalf("transfer accounting empty: %+v", st)
	}
	rowBytes := int64(ds.FeatDim) * 2
	if st.BytesSaved+st.BytesTransferred != st.CacheLookups*rowBytes {
		t.Fatalf("saved %d + transferred %d != lookups %d × row %d",
			st.BytesSaved, st.BytesTransferred, st.CacheLookups, rowBytes)
	}
}

// TestServeThroughShardedStore: a custom base store changes accounting,
// never answers — predictions must still match one-shot inference, and the
// cached wrapper must report shard traffic alongside cache savings.
func TestServeThroughShardedStore(t *testing.T) {
	ds, tr := fitted(t)
	nodes := ds.Test[:24]
	want := singleShot(t, nodes)

	a, err := partition.LDG(ds.G, 3)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := store.NewSharded(ds, a, half.FP16)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 2, MaxBatch: 8, Seed: serveSeed,
		Store: sharded, CacheRows: int(ds.G.N) / 4, CachePolicy: cache.StaticDegree,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range nodes {
		got, err := submit(s, v)
		if err != nil {
			t.Fatalf("Submit(%d): %v", v, err)
		}
		if got != want[v] {
			t.Fatalf("Submit(%d) = %d, want %d", v, got, want[v])
		}
	}
	s.Close()
	ss := s.FeatureStore().Stats()
	if ss.RowsRemote == 0 {
		t.Fatal("sharded base store reported no cross-shard rows")
	}
	if ss.BytesSaved == 0 {
		t.Fatal("cached wrapper saved no transfer")
	}
	st := s.Stats()
	if st.BytesTransferred != ss.BytesMoved || st.BytesSaved != ss.BytesSaved {
		t.Fatalf("server stats %+v disagree with store stats %+v", st, ss)
	}
}

func TestSubmitAfterCloseAndBadNode(t *testing.T) {
	ds, tr := fitted(t)
	s, err := New(tr.Model, ds, Options{Fanouts: serveFanouts, Seed: serveSeed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(s, int32(ds.G.N)); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := submit(s, -1); err == nil {
		t.Fatal("negative node accepted")
	}
	s.Close()
	s.Close() // idempotent
	if _, err := submit(s, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestServeThroughInt8Store: quantized storage flows through the serve path
// untouched — the server must predict exactly what one-shot inference through
// the same int8 store predicts, and the store's accounting must reflect int8
// row width (dim + 4 scale bytes), not the fp16 default.
func TestServeThroughInt8Store(t *testing.T) {
	ds, tr := fitted(t)
	nodes := ds.Test[:16]

	oneShot := store.NewFlatPrec(ds, half.Int8)
	want := make(map[int32]int32, len(nodes))
	for _, v := range nodes {
		pred, err := infer.Sampled(tr.Model, ds, []int32{v}, infer.Options{
			Fanouts: serveFanouts, BatchSize: 1, Workers: 1, Seed: serveSeed,
			Store: oneShot,
		})
		if err != nil {
			t.Fatalf("infer.Sampled(%d): %v", v, err)
		}
		want[v] = pred[0]
	}

	int8Store := store.NewFlatPrec(ds, half.Int8)
	s, err := New(tr.Model, ds, Options{
		Fanouts: serveFanouts, Workers: 2, MaxBatch: 4, Seed: serveSeed,
		Store: int8Store,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range nodes {
		got, err := submit(s, v)
		if err != nil {
			t.Fatalf("Submit(%d): %v", v, err)
		}
		if got != want[v] {
			t.Fatalf("Submit(%d) = %d, want %d (int8 one-shot)", v, got, want[v])
		}
	}
	s.Close()
	ss := s.FeatureStore().Stats()
	if ss.RowsMoved == 0 {
		t.Fatal("int8 store moved no rows")
	}
	if wantBytes := ss.RowsMoved * int64(half.Int8.RowBytes(ds.FeatDim)); ss.BytesMoved != wantBytes {
		t.Fatalf("int8 store moved %d bytes for %d rows, want %d (dim+4 per row)",
			ss.BytesMoved, ss.RowsMoved, wantBytes)
	}
}
