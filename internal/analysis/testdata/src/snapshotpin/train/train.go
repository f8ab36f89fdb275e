// Package train is a snapshotpin golden-test fixture. Its directory
// basename puts it in the analyzer's scope, like the real training package.
package train

import "salient/internal/graph"

// EpochRepin re-pins the graph inside the step loop: each iteration could
// observe a different topology version.
func EpochRepin(d graph.Viewer, steps int) int64 {
	var edges int64
	for i := 0; i < steps; i++ {
		v := d.View() // want "re-pins the graph mid-epoch"
		edges += v.NumEdges()
	}
	return edges
}

// EpochPinned pins once before the loop and passes the view down: legal.
func EpochPinned(d graph.Viewer, steps int) int64 {
	v := d.View()
	var edges int64
	for i := 0; i < steps; i++ {
		edges += v.NumEdges()
	}
	return edges
}

// RangeRepin also trips inside range loops.
func RangeRepin(d graph.Viewer, epochs []int) int64 {
	var edges int64
	for range epochs {
		edges += d.View().NumEdges() // want "re-pins the graph mid-epoch"
	}
	return edges
}

// DynamicRepin re-pins a mutable graph directly, through either method.
func DynamicRepin(d *graph.Dynamic, steps int) int64 {
	var edges int64
	for i := 0; i < steps; i++ {
		edges += d.View().NumEdges()     // want "re-pins the graph mid-epoch"
		edges += d.Snapshot().NumEdges() // want "re-pins the graph mid-epoch"
	}
	return edges
}

// PinnedSelf calls View on already-pinned views, which return themselves
// and stay legal inside loops.
func PinnedSelf(s *graph.Snapshot, p *graph.Partitioned, steps int) int64 {
	var edges int64
	for i := 0; i < steps; i++ {
		edges += s.View().NumEdges() + s.Snapshot().NumEdges() + p.View().NumEdges()
	}
	return edges
}

// WarmRepin documents an intentional per-iteration re-pin.
func WarmRepin(d graph.Viewer, steps int) int64 {
	var edges int64
	for i := 0; i < steps; i++ {
		v := d.View() //lint:allow snapshotpin fixture for the suppression path; warmup deliberately chases head
		edges += v.NumEdges()
	}
	return edges
}
