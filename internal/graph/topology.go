package graph

import "fmt"

// Topology is the adjacency seam the rest of the system reads graphs
// through: everything downstream of dataset load — neighborhood sampling,
// the alternative sampling families, caching, partitioning, full-graph
// inference — consumes adjacency exclusively via this interface, so the
// concrete representation (a static CSR, an immutable Snapshot of a mutable
// Dynamic graph, a distributed Partitioned view) can vary without touching
// consumers.
//
// Implementations must be immutable, or at least unchanging for as long as
// a consumer holds them: samplers, caches, and executors read Topology
// concurrently and without synchronization. Mutable graphs hand out
// immutable Snapshot views instead of implementing Topology directly.
type Topology interface {
	// NumNodes returns the number of nodes; valid IDs are [0, NumNodes).
	NumNodes() int32
	// NumEdges returns the number of directed adjacency entries.
	NumEdges() int64
	// Degree returns the out-degree of v.
	Degree(v int32) int32
	// Neighbors returns the adjacency slice of v. The returned slice aliases
	// internal storage and must not be mutated; it stays valid for the
	// lifetime of the Topology.
	Neighbors(v int32) []int32
}

// NumNodes implements Topology.
func (g *CSR) NumNodes() int32 { return g.N }

// View is a pinned, immutable, version-numbered Topology — what epoch- and
// batch-scoped consumers actually hold while they sample. *Snapshot is the
// single-address-space implementation; *Partitioned is the distributed one,
// serving local partitions natively and remote adjacency over a transport.
// Like every Topology, a View must be safe for concurrent readers.
type View interface {
	Topology
	// Version returns the logical version of the graph this view captured.
	Version() uint64
}

// Viewer yields the current View of a possibly mutable graph. Epoch-scoped
// consumers (the prep executors, the DDP trainer) pin exactly one View per
// epoch so mid-epoch determinism is a property of the pin, not of the graph
// holding still; per-micro-batch consumers (the serving layer) re-pin at
// each batch for freshness.
//
// *Dynamic, *Snapshot, and *Partitioned all implement Viewer — a pinned
// view returns itself, so "always the latest view" and "this one pinned
// view" wire through the same seam.
type Viewer interface {
	View() View
}

// Snapshot is an immutable Topology view of a graph at one version. For
// nodes untouched by deltas it aliases the base CSR's adjacency directly;
// nodes with post-base edges (and nodes added after the base) read from an
// overlay of merged adjacency slices materialized when the snapshot was
// taken — so Neighbors never allocates, which is what keeps steady-state
// sampling over a snapshot allocation-free.
type Snapshot struct {
	version uint64
	n       int32
	edges   int64
	base    *CSR
	// overlay holds the full (base + delta) adjacency for every node the
	// deltas touched; nil when the snapshot carries no deltas (the static
	// and freshly-compacted cases), making the hot-path branch one nil test.
	overlay map[int32][]int32
}

// Static wraps an immutable CSR as a version-0 Snapshot, the degenerate
// "never changes" case: consumers that accept a Viewer serve static graphs
// through the exact same code path as dynamic ones.
func Static(g *CSR) *Snapshot {
	return &Snapshot{n: g.N, edges: g.NumEdges(), base: g}
}

// Snapshot returns s: a snapshot is its own (only) view.
func (s *Snapshot) Snapshot() *Snapshot { return s }

// View implements Viewer: a snapshot is its own pinned view.
func (s *Snapshot) View() View { return s }

// Version returns the logical version of the graph this snapshot captured:
// 0 for a static graph, and the mutation count of a Dynamic graph at pin
// time. Compaction changes the representation, never the version.
func (s *Snapshot) Version() uint64 { return s.version }

// NumNodes implements Topology.
func (s *Snapshot) NumNodes() int32 { return s.n }

// NumEdges implements Topology.
func (s *Snapshot) NumEdges() int64 { return s.edges }

// Degree implements Topology.
func (s *Snapshot) Degree(v int32) int32 {
	if s.overlay != nil {
		if ns, ok := s.overlay[v]; ok {
			return int32(len(ns))
		}
	}
	if v < s.base.N {
		return s.base.Degree(v)
	}
	return 0
}

// Neighbors implements Topology. The returned slice aliases either the base
// CSR or the snapshot's merged overlay; both are immutable for the
// snapshot's lifetime, and neither path allocates.
func (s *Snapshot) Neighbors(v int32) []int32 {
	if s.overlay != nil {
		if ns, ok := s.overlay[v]; ok {
			return ns
		}
	}
	if v < s.base.N {
		return s.base.Neighbors(v)
	}
	return nil
}

// CSR materializes the snapshot as a standalone CSR (a copy; the snapshot's
// base is never aliased mutably). Compaction uses it, and it gives static
// consumers an escape hatch off the seam.
func (s *Snapshot) CSR() *CSR {
	ptr := make([]int64, s.n+1)
	for v := int32(0); v < s.n; v++ {
		ptr[v+1] = ptr[v] + int64(s.Degree(v))
	}
	adj := make([]int32, ptr[s.n])
	for v := int32(0); v < s.n; v++ {
		copy(adj[ptr[v]:ptr[v+1]], s.Neighbors(v))
	}
	return &CSR{N: s.n, Ptr: ptr, Adj: adj}
}

// Validate checks the snapshot's structural invariants: overlay and base
// adjacency entries in range and edge accounting consistent.
func (s *Snapshot) Validate() error {
	if err := s.base.Validate(); err != nil {
		return fmt.Errorf("graph: snapshot base: %w", err)
	}
	var overlayEdges int64
	for v, ns := range s.overlay {
		if v < 0 || v >= s.n {
			return fmt.Errorf("graph: snapshot overlay node %d out of range [0,%d)", v, s.n)
		}
		for _, u := range ns {
			if u < 0 || u >= s.n {
				return fmt.Errorf("graph: snapshot overlay edge (%d,%d) out of range", v, u)
			}
		}
		overlayEdges += int64(len(ns))
		if v < s.base.N {
			overlayEdges -= int64(s.base.Degree(v))
		}
	}
	if got := s.base.NumEdges() + overlayEdges; got != s.edges {
		return fmt.Errorf("graph: snapshot edge count %d, adjacency holds %d", s.edges, got)
	}
	return nil
}
