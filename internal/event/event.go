// Package event provides a deterministic virtual-time resource algebra for
// modeling execution timelines: serial resources (a GPU stream, a data bus,
// the Python main thread) and worker pools (sampling workers) onto which
// tasks with known durations are scheduled. It also provides Hist, the
// bounded histogram that summarizes measured wall-clock distributions
// (serving latencies and batch occupancies).
//
// The resources are the substrate for the paper's timing experiments. The
// host running this reproduction has a single CPU core, so wall-clock
// measurements cannot exhibit the multi-worker and multi-GPU behaviour the
// paper studies; instead, pipeline structure is modeled in virtual time with
// calibrated durations (see internal/device), which reproduces overlap,
// blocking and scaling behaviour deterministically.
//
// All virtual times are float64 seconds from epoch start.
package event

// Serial is a resource that executes one task at a time, in submission
// order (a CUDA stream, a DMA engine, a single thread).
type Serial struct {
	Name string

	freeAt float64
	busy   float64
}

// NewSerial creates a serial resource available at time 0.
func NewSerial(name string) *Serial { return &Serial{Name: name} }

// Run schedules a task that becomes ready at `ready` and takes `dur`.
// It returns the task's start and end times. Tasks queue FIFO: a task
// cannot start before previously submitted tasks finish.
func (s *Serial) Run(ready, dur float64) (start, end float64) {
	start = ready
	if s.freeAt > start {
		start = s.freeAt
	}
	end = start + dur
	s.freeAt = end
	s.busy += dur
	return start, end
}

// FreeAt returns the time the resource next becomes idle.
func (s *Serial) FreeAt() float64 { return s.freeAt }

// Busy returns the total busy time accumulated.
func (s *Serial) Busy() float64 { return s.busy }

// Utilization returns busy time divided by the horizon.
func (s *Serial) Utilization(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	return s.busy / horizon
}

// Pool is a set of identical serial workers. Tasks can be placed on the
// earliest-available worker (dynamic load balancing, SALIENT's lock-free
// queue) or on a specific worker (static partitioning, PyTorch DataLoader).
type Pool struct {
	Name string

	free []float64
	busy float64
}

// NewPool creates a pool of n workers, all available at time 0.
func NewPool(name string, n int) *Pool {
	if n < 1 {
		panic("event: pool needs at least one worker") //lint:allow panicdiscipline constructor contract: a zero-worker pool is a programmer error caught at wiring time
	}
	return &Pool{Name: name, free: make([]float64, n)}
}

// Size returns the number of workers.
func (p *Pool) Size() int { return len(p.free) }

// RunDynamic schedules the task on the worker that can start it earliest.
func (p *Pool) RunDynamic(ready, dur float64) (start, end float64, worker int) {
	worker = 0
	for i, f := range p.free {
		if f < p.free[worker] {
			worker = i
		}
		_ = f
	}
	start, end = p.runOn(worker, ready, dur)
	return start, end, worker
}

// RunOn schedules the task on a specific worker (static assignment).
func (p *Pool) RunOn(worker int, ready, dur float64) (start, end float64) {
	return p.runOn(worker, ready, dur)
}

func (p *Pool) runOn(worker int, ready, dur float64) (start, end float64) {
	start = ready
	if p.free[worker] > start {
		start = p.free[worker]
	}
	end = start + dur
	p.free[worker] = end
	p.busy += dur
	return start, end
}

// FreeAt returns when the given worker becomes idle.
func (p *Pool) FreeAt(worker int) float64 { return p.free[worker] }

// EarliestFree returns the earliest idle time across workers.
func (p *Pool) EarliestFree() float64 {
	m := p.free[0]
	for _, f := range p.free[1:] {
		if f < m {
			m = f
		}
	}
	return m
}

// Busy returns total busy time across all workers.
func (p *Pool) Busy() float64 { return p.busy }

// Utilization returns aggregate utilization over the horizon.
func (p *Pool) Utilization(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	return p.busy / (horizon * float64(len(p.free)))
}

// Max returns the larger of a and b; a tiny convenience for timeline code.
func Max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// MaxAll returns the maximum of the given values (at least one required).
func MaxAll(vs ...float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
