// Package graph provides the compressed sparse row (CSR) graph representation
// used throughout SALIENT: neighborhood sampling reads adjacency in CSR, and
// the synthetic datasets are materialized into it.
//
// Node IDs are int32 (the OGB graphs in the paper fit in 31 bits; papers100M
// has 111M nodes). Edge offsets are int64 to allow >2B edges.
package graph

import (
	"fmt"
	"sort"
)

// CSR is an adjacency structure: the neighbors of node v are
// Adj[Ptr[v]:Ptr[v+1]].
type CSR struct {
	N   int32   // number of nodes
	Ptr []int64 // len N+1, monotone
	Adj []int32 // len Ptr[N]
}

// NumEdges returns the number of directed edges (an undirected graph stores
// each edge twice).
func (g *CSR) NumEdges() int64 { return g.Ptr[g.N] }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v int32) int32 {
	return int32(g.Ptr[v+1] - g.Ptr[v])
}

// Neighbors returns the adjacency slice of v (aliases internal storage).
func (g *CSR) Neighbors(v int32) []int32 {
	return g.Adj[g.Ptr[v]:g.Ptr[v+1]]
}

// FromEdgeList builds a CSR with n nodes from directed edge pairs
// (src[i] -> dst[i] becomes an entry in src's adjacency list).
//
// Duplicate pairs are kept verbatim: listing (u,v) k times yields v k times
// in u's adjacency (a multigraph), and self-loops are kept too; use
// Undirected to symmetrize, deduplicate, and drop self-loops. Note the
// deliberate contrast with Dynamic.AddEdges, which DROPS already-present
// edges: online deltas feed the samplers directly, and the rejection-based
// neighbor pickers terminate only on duplicate-free adjacency (the
// invariant Undirected gives static datasets).
func FromEdgeList(n int32, src, dst []int32) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: src/dst length mismatch %d vs %d", len(src), len(dst))
	}
	deg := make([]int64, n+1)
	for i, s := range src {
		if s < 0 || s >= n || dst[i] < 0 || dst[i] >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", s, dst[i], n)
		}
		deg[s+1]++
	}
	for i := int32(0); i < n; i++ {
		deg[i+1] += deg[i]
	}
	adj := make([]int32, len(src))
	cursor := make([]int64, n)
	copy(cursor, deg[:n])
	for i, s := range src {
		adj[cursor[s]] = dst[i]
		cursor[s]++
	}
	return &CSR{N: n, Ptr: deg, Adj: adj}, nil
}

// Undirected returns a symmetrized copy of g with duplicate edges and
// self-loops removed: for every edge (u,v), both (u,v) and (v,u) appear
// exactly once. The paper makes all benchmark graphs undirected ("as is
// common practice", §6).
func (g *CSR) Undirected() *CSR {
	// Count both directions first.
	deg := make([]int64, g.N+1)
	forEachEdge := func(fn func(u, v int32)) {
		for u := int32(0); u < g.N; u++ {
			for _, v := range g.Neighbors(u) {
				if u == v {
					continue
				}
				fn(u, v)
				fn(v, u)
			}
		}
	}
	forEachEdge(func(u, v int32) { deg[u+1]++ })
	for i := int32(0); i < g.N; i++ {
		deg[i+1] += deg[i]
	}
	adj := make([]int32, deg[g.N])
	cursor := make([]int64, g.N)
	copy(cursor, deg[:g.N])
	forEachEdge(func(u, v int32) {
		adj[cursor[u]] = v
		cursor[u]++
	})
	// Sort and dedup each adjacency list, compacting in place. Writes always
	// trail reads because deduplication only shrinks segments.
	outPtr := make([]int64, g.N+1)
	var write int64
	for u := int32(0); u < g.N; u++ {
		lo, hi := deg[u], deg[u+1]
		seg := adj[lo:hi]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		outPtr[u] = write
		var prev int32 = -1
		for _, v := range seg {
			if v != prev {
				adj[write] = v
				write++
				prev = v
			}
		}
	}
	outPtr[g.N] = write
	return &CSR{N: g.N, Ptr: outPtr, Adj: adj[:write]}
}

// MaxDegree returns the maximum degree in g.
func (g *CSR) MaxDegree() int32 {
	var m int32
	for v := int32(0); v < g.N; v++ {
		if d := g.Degree(v); d > m {
			m = d
		}
	}
	return m
}

// AvgDegree returns the average degree.
func (g *CSR) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.N)
}

// DegreeHistogram returns counts of nodes bucketed by log2(degree):
// bucket[0] = degree 0, bucket[k] = degree in [2^(k-1), 2^k).
func (g *CSR) DegreeHistogram() []int64 {
	var buckets []int64
	bump := func(b int) {
		for len(buckets) <= b {
			buckets = append(buckets, 0)
		}
		buckets[b]++
	}
	for v := int32(0); v < g.N; v++ {
		d := g.Degree(v)
		if d == 0 {
			bump(0)
			continue
		}
		b := 1
		for d > 1 {
			d >>= 1
			b++
		}
		bump(b)
	}
	return buckets
}

// Validate checks structural invariants and returns an error describing the
// first violation found: a negative node count, a Ptr slice of the wrong
// length, a non-monotone (or non-zero-based) Ptr, a Ptr/Adj length
// disagreement, or an out-of-range Adj entry.
func (g *CSR) Validate() error {
	if g.N < 0 {
		return fmt.Errorf("graph: negative node count %d", g.N)
	}
	if int64(len(g.Ptr)) != int64(g.N)+1 {
		return fmt.Errorf("graph: len(Ptr)=%d want %d", len(g.Ptr), g.N+1)
	}
	if g.Ptr[0] != 0 {
		return fmt.Errorf("graph: Ptr[0]=%d", g.Ptr[0])
	}
	for i := int32(0); i < g.N; i++ {
		if g.Ptr[i+1] < g.Ptr[i] {
			return fmt.Errorf("graph: Ptr not monotone at %d (%d -> %d)", i, g.Ptr[i], g.Ptr[i+1])
		}
	}
	if g.Ptr[g.N] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: Ptr[N]=%d but len(Adj)=%d", g.Ptr[g.N], len(g.Adj))
	}
	for i, v := range g.Adj {
		if v < 0 || v >= g.N {
			return fmt.Errorf("graph: Adj[%d]=%d out of range", i, v)
		}
	}
	return nil
}

// Induced extracts the subgraph induced by the given node set. The returned
// CSR has len(nodes) vertices, with local ID i corresponding to nodes[i];
// edges are retained only when both endpoints are in the set. Duplicate
// entries in nodes are rejected.
func (g *CSR) Induced(nodes []int32) (*CSR, error) {
	return Induced(g, nodes)
}
