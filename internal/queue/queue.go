// Package queue provides a bounded, lock-free, multi-producer multi-consumer
// ring queue.
//
// SALIENT's batch-preparation workers balance load dynamically by pulling
// mini-batch descriptors from a lock-free input queue (paper §4.2): dynamic
// pulling beats the static partitioning of a PyTorch DataLoader because the
// expanded-neighborhood size varies widely across mini-batches. This is that
// queue, implemented with the Vyukov bounded-MPMC algorithm using per-slot
// sequence numbers.
package queue

import (
	"sync/atomic"
)

type slot[T any] struct {
	seq atomic.Uint64
	val T
	// Pad to a cache line to avoid false sharing between adjacent slots.
	_ [40]byte
}

// MPMC is a bounded lock-free multi-producer multi-consumer queue.
// The zero value is not usable; call New.
type MPMC[T any] struct {
	mask    uint64
	slots   []slot[T]
	_       [48]byte // separate head and tail onto distinct cache lines
	enqueue atomic.Uint64
	_       [56]byte
	dequeue atomic.Uint64
	_       [56]byte
	closed  atomic.Bool
}

// New returns a queue able to hold at least capacity elements.
//
// The actual capacity (reported by Cap) is capacity rounded up to the next
// power of two, with a floor of 2: the Vyukov algorithm masks sequence
// numbers by capacity-1, so slots must be a power of two. Any capacity <= 2
// — including zero and negative values — yields the minimum capacity of 2.
// Callers sizing a queue as an admission-control bound should therefore
// treat the requested capacity as a lower bound and use Cap for the exact
// saturation point.
func New[T any](capacity int) *MPMC[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	q := &MPMC[T]{
		mask:  uint64(n - 1),
		slots: make([]slot[T], n),
	}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// Cap returns the queue capacity.
func (q *MPMC[T]) Cap() int { return len(q.slots) }

// TryPush attempts to enqueue v without blocking. It returns false if the
// queue is full or closed.
func (q *MPMC[T]) TryPush(v T) bool {
	if q.closed.Load() {
		return false
	}
	pos := q.enqueue.Load()
	for {
		s := &q.slots[pos&q.mask]
		seq := s.seq.Load()
		diff := int64(seq) - int64(pos)
		switch {
		case diff == 0:
			if q.enqueue.CompareAndSwap(pos, pos+1) {
				s.val = v
				s.seq.Store(pos + 1)
				return true
			}
			pos = q.enqueue.Load()
		case diff < 0:
			return false // full
		default:
			pos = q.enqueue.Load()
		}
	}
}

// TryPop attempts to dequeue without blocking. ok is false if the queue is
// currently empty.
func (q *MPMC[T]) TryPop() (v T, ok bool) {
	pos := q.dequeue.Load()
	for {
		s := &q.slots[pos&q.mask]
		seq := s.seq.Load()
		diff := int64(seq) - int64(pos+1)
		switch {
		case diff == 0:
			if q.dequeue.CompareAndSwap(pos, pos+1) {
				v = s.val
				var zero T
				s.val = zero
				s.seq.Store(pos + q.mask + 1)
				return v, true
			}
			pos = q.dequeue.Load()
		case diff < 0:
			var zero T
			return zero, false // empty
		default:
			pos = q.dequeue.Load()
		}
	}
}

// Pop dequeues, spinning (with progressively yielding backoff) until an
// element is available or the queue is closed and drained. ok is false only
// in the closed-and-drained case.
func (q *MPMC[T]) Pop() (v T, ok bool) {
	backoff := spinBackoff{}
	for {
		if v, ok = q.TryPop(); ok {
			return v, true
		}
		if q.closed.Load() {
			// Re-check after observing closed: a producer may have pushed
			// between our TryPop and the closed load.
			if v, ok = q.TryPop(); ok {
				return v, true
			}
			var zero T
			return zero, false
		}
		backoff.wait()
	}
}

// Push enqueues, spinning until space is available. It returns false if the
// queue is closed.
func (q *MPMC[T]) Push(v T) bool {
	backoff := spinBackoff{}
	for {
		if q.closed.Load() {
			return false
		}
		if q.TryPush(v) {
			return true
		}
		backoff.wait()
	}
}

// Close marks the queue closed. Subsequent pushes fail; pops drain remaining
// elements and then report ok=false.
func (q *MPMC[T]) Close() { q.closed.Store(true) }

// Len returns an instantaneous (racy, advisory) element count.
func (q *MPMC[T]) Len() int {
	e := q.enqueue.Load()
	d := q.dequeue.Load()
	if e < d {
		return 0
	}
	n := int(e - d)
	if n > len(q.slots) {
		n = len(q.slots)
	}
	return n
}
