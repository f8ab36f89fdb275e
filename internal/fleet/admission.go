package fleet

import (
	"errors"
	"fmt"
	"time"
)

// ShedReason classifies why admission refused a request — the taxonomy the
// fleet's Stats expose so an operator can tell "clients ask for the
// impossible" (deadline) from "we are overloaded" (priority, capacity).
type ShedReason int

const (
	// ShedDeadline: the request's deadline is closer than the target
	// replica's live p95 service time — it provably (to p95 confidence)
	// cannot be met, so executing it would only delay feasible work.
	ShedDeadline ShedReason = iota
	// ShedPriority: the replica's queue is deep enough that only
	// higher-priority traffic is still admitted (lowest priority sheds
	// first as occupancy climbs).
	ShedPriority
	// ShedCapacity: the replica's admission queue was full — the bare
	// server's ErrSaturated, attributed.
	ShedCapacity
	numShedReasons int = iota
)

func (r ShedReason) String() string {
	switch r {
	case ShedDeadline:
		return "deadline"
	case ShedPriority:
		return "priority"
	case ShedCapacity:
		return "capacity"
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// Sentinel causes for errors.Is matching, one per ShedReason.
var (
	ErrShedDeadline = errors.New("fleet: shed, deadline infeasible")
	ErrShedPriority = errors.New("fleet: shed, priority below admission threshold")
	ErrShedCapacity = errors.New("fleet: shed, replica saturated")
)

func (r ShedReason) sentinel() error {
	switch r {
	case ShedDeadline:
		return ErrShedDeadline
	case ShedPriority:
		return ErrShedPriority
	}
	return ErrShedCapacity
}

// ShedError is a refused request with its full admission context: which
// replica refused (or -1 when no replica was eligible), why, and — for
// deadline sheds — how the deadline compared to the service-time estimate
// that condemned it.
type ShedError struct {
	// Reason classifies the shed.
	Reason ShedReason
	// Replica is the refusing replica, or -1 when the decision was
	// fleet-global (no eligible replica).
	Replica int
	// Remaining is time-to-deadline at the decision instant and Estimate
	// the replica's p95 service time, both zero for non-deadline sheds.
	Remaining time.Duration
	Estimate  time.Duration
	// Err is the underlying cause (the reason's sentinel, or the
	// replica's own error for capacity sheds).
	Err error
}

func (e *ShedError) Error() string {
	if e.Reason == ShedDeadline {
		return fmt.Sprintf("fleet: replica %d shed (%s): %v remaining < %v p95 estimate",
			e.Replica, e.Reason, e.Remaining, e.Estimate)
	}
	return fmt.Sprintf("fleet: replica %d shed (%s): %v", e.Replica, e.Reason, e.Err)
}

// Unwrap exposes the cause chain to errors.Is (a capacity shed wrapping
// the replica's ErrSaturated matches that too).
func (e *ShedError) Unwrap() error { return e.Err }

// Is matches every ShedError against its reason's sentinel even when Err
// holds the replica's own error instead (capacity sheds wrap ErrSaturated,
// yet errors.Is(err, ErrShedCapacity) still holds).
func (e *ShedError) Is(target error) bool { return target == e.Reason.sentinel() }

func shedErr(reason ShedReason, replica int) *ShedError {
	return &ShedError{Reason: reason, Replica: replica, Err: reason.sentinel()}
}
