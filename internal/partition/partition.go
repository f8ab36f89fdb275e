// Package partition implements streaming graph partitioning for the
// distributed-data future work the paper sketches (§8): when the graph and
// feature data no longer fit one machine, nodes must be split across hosts,
// and the partitioning objective must account not just for edge cut and
// load balance but for the cost of multi-hop neighborhood sampling.
//
// Two partitioners are provided:
//
//   - Random: hash placement, the communication-oblivious baseline.
//   - LDG (linear deterministic greedy, Stanton & Kliot 2012): streaming
//     placement that scores each part by resident-neighbor count with a
//     multiplicative balance penalty. One pass, near-METIS cut quality on
//     power-law graphs, no external dependency.
//
// Quality is evaluated by edge cut and balance (Evaluate). The
// sampling-specific cost, the share of sampled rows fetched off-part, is
// measured where it is paid: the sharded feature store's remote-row
// accounting.
package partition

import (
	"fmt"

	"salient/internal/graph"
)

// Assignment maps each node to a part in [0, Parts).
type Assignment struct {
	Part  []int32
	Parts int
}

// Random assigns nodes to parts by a multiplicative hash of their ID.
func Random(g graph.Topology, parts int, seed uint64) (*Assignment, error) {
	if err := checkParts(g, parts); err != nil {
		return nil, err
	}
	a := &Assignment{Part: make([]int32, g.NumNodes()), Parts: parts}
	for v := int32(0); v < g.NumNodes(); v++ {
		h := (uint64(v) + seed) * 0x9e3779b97f4a7c15
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 32
		a.Part[v] = int32(h % uint64(parts))
	}
	return a, nil
}

// LDG runs one streaming pass of linear deterministic greedy partitioning:
// node v goes to the part with the most already-placed neighbors, scaled by
// the remaining capacity (1 - size/capacity).
func LDG(g graph.Topology, parts int) (*Assignment, error) {
	if err := checkParts(g, parts); err != nil {
		return nil, err
	}
	a := &Assignment{Part: make([]int32, g.NumNodes()), Parts: parts}
	for i := range a.Part {
		a.Part[i] = -1
	}
	sizes := make([]int64, parts)
	capacity := float64(g.NumNodes())/float64(parts) + 1
	neigh := make([]float64, parts)
	for v := int32(0); v < g.NumNodes(); v++ {
		place(g, a, v, sizes, capacity, neigh)
	}
	return a, nil
}

// place assigns v greedily and updates sizes. neigh is scratch (len parts).
func place(g graph.Topology, a *Assignment, v int32, sizes []int64, capacity float64, neigh []float64) {
	for i := range neigh {
		neigh[i] = 0
	}
	for _, u := range g.Neighbors(v) {
		if p := a.Part[u]; p >= 0 {
			neigh[p]++
		}
	}
	best := 0
	bestScore := -1.0
	for p := range neigh {
		score := (neigh[p] + 1) * (1 - float64(sizes[p])/capacity)
		if score > bestScore {
			bestScore = score
			best = p
		}
	}
	a.Part[v] = int32(best)
	sizes[best]++
}

func checkParts(g graph.Topology, parts int) error {
	if parts < 1 {
		return fmt.Errorf("partition: need >=1 parts, got %d", parts)
	}
	if int64(parts) > int64(g.NumNodes()) {
		return fmt.Errorf("partition: %d parts for %d nodes", parts, g.NumNodes())
	}
	return nil
}

// Quality summarizes a partitioning.
type Quality struct {
	Parts    int
	EdgeCut  float64 // fraction of edges crossing parts
	Balance  float64 // max part size / ideal part size (1.0 = perfect)
	MaxPart  int64
	MinPart  int64
	CutEdges int64
}

// Evaluate computes edge cut and balance for an assignment.
func Evaluate(g graph.Topology, a *Assignment) Quality {
	q := Quality{Parts: a.Parts}
	sizes := make([]int64, a.Parts)
	for _, p := range a.Part {
		sizes[p]++
	}
	q.MaxPart, q.MinPart = sizes[0], sizes[0]
	for _, s := range sizes[1:] {
		if s > q.MaxPart {
			q.MaxPart = s
		}
		if s < q.MinPart {
			q.MinPart = s
		}
	}
	ideal := float64(g.NumNodes()) / float64(a.Parts)
	if ideal > 0 {
		q.Balance = float64(q.MaxPart) / ideal
	}
	var cut int64
	for v := int32(0); v < g.NumNodes(); v++ {
		pv := a.Part[v]
		for _, u := range g.Neighbors(v) {
			if a.Part[u] != pv {
				cut++
			}
		}
	}
	q.CutEdges = cut / 2 // undirected edges counted twice
	if e := g.NumEdges(); e > 0 {
		q.EdgeCut = float64(cut) / float64(e)
	}
	return q
}
