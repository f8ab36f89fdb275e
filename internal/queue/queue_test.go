package queue

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestFIFOSingleThread(t *testing.T) {
	q := New[int](8)
	for i := 0; i < 8; i++ {
		if !q.TryPush(i) {
			t.Fatalf("TryPush(%d) failed on non-full queue", i)
		}
	}
	if q.TryPush(99) {
		t.Fatal("TryPush succeeded on full queue")
	}
	for i := 0; i < 8; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("TryPop = %d,%v want %d,true", v, ok, i)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop succeeded on empty queue")
	}
}

func TestCapacityRounding(t *testing.T) {
	// The documented contract: Cap() == max(2, next power of two >= capacity),
	// and capacity <= 0 is accepted, yielding the minimum. The serving layer
	// sizes its admission bound off this, so it is a regression surface.
	cases := []struct{ request, want int }{
		{-3, 2},
		{0, 2},
		{1, 2},
		{2, 2},
		{3, 4},
		{5, 8},
		{16, 16},
		{1000, 1024},
	}
	for _, c := range cases {
		if got := New[int](c.request).Cap(); got != c.want {
			t.Errorf("New(%d).Cap() = %d, want %d", c.request, got, c.want)
		}
	}
}

func TestDegenerateCapacityUsable(t *testing.T) {
	// Queues built from degenerate capacities must still satisfy the full
	// push/pop contract: exactly Cap() slots, FIFO order, reject when full.
	for _, request := range []int{0, 1, 3} {
		q := New[int](request)
		n := q.Cap()
		for i := 0; i < n; i++ {
			if !q.TryPush(i) {
				t.Fatalf("New(%d): TryPush(%d) failed below Cap()=%d", request, i, n)
			}
		}
		if q.TryPush(n) {
			t.Fatalf("New(%d): TryPush succeeded past Cap()=%d", request, n)
		}
		for i := 0; i < n; i++ {
			v, ok := q.TryPop()
			if !ok || v != i {
				t.Fatalf("New(%d): TryPop = %d,%v want %d,true", request, v, ok, i)
			}
		}
		if _, ok := q.TryPop(); ok {
			t.Fatalf("New(%d): TryPop succeeded on drained queue", request)
		}
	}
}

func TestWrapAround(t *testing.T) {
	q := New[int](4)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if !q.TryPush(round*10 + i) {
				t.Fatal("push failed")
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := q.TryPop()
			if !ok || v != round*10+i {
				t.Fatalf("round %d: got %d,%v", round, v, ok)
			}
		}
	}
}

func TestCloseSemantics(t *testing.T) {
	q := New[int](4)
	q.TryPush(1)
	q.Close()
	if q.Push(2) {
		t.Fatal("Push succeeded after Close")
	}
	if q.TryPush(3) {
		t.Fatal("TryPush succeeded after Close")
	}
	// Drain remaining.
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatalf("Pop after close = %d,%v, want 1,true", v, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on closed+drained queue returned ok")
	}
}

func TestConcurrentMPMC(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 20000
	)
	q := New[int](64)
	var wg sync.WaitGroup
	var sum atomic.Int64
	var count atomic.Int64

	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := q.Pop()
				if !ok {
					return
				}
				sum.Add(int64(v))
				count.Add(1)
			}
		}()
	}

	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProd; i++ {
				if !q.Push(p*perProd + i) {
					t.Errorf("push failed before close")
					return
				}
			}
		}(p)
	}
	pwg.Wait()
	q.Close()
	wg.Wait()

	wantCount := int64(producers * perProd)
	if count.Load() != wantCount {
		t.Fatalf("consumed %d items, want %d", count.Load(), wantCount)
	}
	n := int64(producers * perProd)
	wantSum := n * (n - 1) / 2
	if sum.Load() != wantSum {
		t.Fatalf("sum = %d, want %d (lost or duplicated items)", sum.Load(), wantSum)
	}
}

func TestPerItemDeliveredExactlyOnce(t *testing.T) {
	const n = 50000
	q := New[int32](128)
	seen := make([]atomic.Int32, n)
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := q.Pop()
				if !ok {
					return
				}
				seen[v].Add(1)
			}
		}()
	}
	for i := int32(0); i < n; i++ {
		q.Push(i)
	}
	q.Close()
	wg.Wait()
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("item %d delivered %d times", i, got)
		}
	}
}

func TestLenAdvisory(t *testing.T) {
	q := New[int](8)
	if q.Len() != 0 {
		t.Fatalf("empty Len = %d", q.Len())
	}
	q.TryPush(1)
	q.TryPush(2)
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	q.TryPop()
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

func BenchmarkPushPopUncontended(b *testing.B) {
	q := New[int](1024)
	for i := 0; i < b.N; i++ {
		q.TryPush(i)
		q.TryPop()
	}
}

func BenchmarkMPMCThroughput(b *testing.B) {
	q := New[int](256)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i&1 == 0 {
				q.TryPush(i)
			} else {
				q.TryPop()
			}
			i++
		}
	})
}
