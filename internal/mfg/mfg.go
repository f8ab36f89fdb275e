// Package mfg defines the message-flow graph (MFG) produced by neighborhood
// sampling: a sequence of bipartite blocks, one per GNN layer, plus the
// global IDs of every node involved in the mini-batch.
//
// The node ordering follows the PyG/SALIENT convention that makes slicing
// and layer application cheap: local IDs are assigned in discovery order
// (seed nodes first, then each hop's newly discovered neighbors), so the
// destination nodes of every block are a prefix of its source nodes and
// `x_target = x[:NumDst]` is a contiguous slice.
package mfg

import "fmt"

// Block is one bipartite sampling layer. Edges are stored grouped by
// destination (CSC-like): the sampled in-neighbors of destination-local node
// v are Src[DstPtr[v]:DstPtr[v+1]], each entry a source-local node ID.
type Block struct {
	DstPtr []int32 // len NumDst+1, monotone
	Src    []int32 // source-local IDs, grouped by destination
	NumDst int32   // destination node count (prefix of the source set)
	NumSrc int32   // source node count
}

// NumEdges returns the number of sampled edges in the block.
func (b *Block) NumEdges() int { return len(b.Src) }

// Neighbors returns the source-local in-neighbors of destination v.
func (b *Block) Neighbors(v int32) []int32 {
	return b.Src[b.DstPtr[v]:b.DstPtr[v+1]]
}

// MFG is a sampled mini-batch: Blocks[0] is consumed by the first GNN layer
// (the outermost, largest hop) and Blocks[len-1] by the last layer, whose
// destinations are exactly the seed nodes.
type MFG struct {
	Blocks  []Block
	NodeIDs []int32 // global node IDs indexed by local ID; len == Blocks[0].NumSrc
	Batch   int32   // number of seed nodes == Blocks[len-1].NumDst
}

// Layers returns the number of blocks.
func (m *MFG) Layers() int { return len(m.Blocks) }

// TotalNodes returns the number of distinct nodes in the expanded
// neighborhood (the rows that must be sliced and transferred).
func (m *MFG) TotalNodes() int { return len(m.NodeIDs) }

// TotalEdges returns the number of sampled edges across all blocks.
func (m *MFG) TotalEdges() int {
	n := 0
	for i := range m.Blocks {
		n += m.Blocks[i].NumEdges()
	}
	return n
}

// TransferBytes estimates the host-to-device payload of this MFG given the
// feature width (in bytes per scalar) and feature dimensionality: feature
// rows for all nodes, labels for the seed nodes, and edge indices.
func (m *MFG) TransferBytes(featDim, bytesPerScalar int) int64 {
	var b int64
	b += int64(m.TotalNodes()) * int64(featDim) * int64(bytesPerScalar)
	b += int64(m.Batch) * 8 // labels (int64 in torch)
	for i := range m.Blocks {
		b += int64(m.Blocks[i].NumEdges()) * 8 // src,dst int32 pairs
		b += int64(len(m.Blocks[i].DstPtr)) * 4
	}
	return b
}

// Validate checks all structural invariants of the MFG:
//   - the last block's destinations are the seed nodes;
//   - destination sets are prefixes of source sets;
//   - adjacent blocks chain (sources of layer ℓ+1 == destinations of layer ℓ);
//   - DstPtr is monotone and edge endpoints are in range;
//   - NodeIDs covers every source node of the outermost block.
func (m *MFG) Validate() error {
	if len(m.Blocks) == 0 {
		return fmt.Errorf("mfg: no blocks")
	}
	last := &m.Blocks[len(m.Blocks)-1]
	if last.NumDst != m.Batch {
		return fmt.Errorf("mfg: last block NumDst=%d != batch %d", last.NumDst, m.Batch)
	}
	if int(m.Blocks[0].NumSrc) != len(m.NodeIDs) {
		return fmt.Errorf("mfg: NodeIDs len %d != outer NumSrc %d", len(m.NodeIDs), m.Blocks[0].NumSrc)
	}
	for i := range m.Blocks {
		b := &m.Blocks[i]
		if b.NumDst > b.NumSrc {
			return fmt.Errorf("mfg: block %d NumDst %d > NumSrc %d", i, b.NumDst, b.NumSrc)
		}
		if int32(len(b.DstPtr)) != b.NumDst+1 {
			return fmt.Errorf("mfg: block %d DstPtr len %d != NumDst+1", i, len(b.DstPtr))
		}
		if b.DstPtr[0] != 0 || int(b.DstPtr[b.NumDst]) != len(b.Src) {
			return fmt.Errorf("mfg: block %d DstPtr ends wrong", i)
		}
		for v := int32(0); v < b.NumDst; v++ {
			if b.DstPtr[v+1] < b.DstPtr[v] {
				return fmt.Errorf("mfg: block %d DstPtr not monotone at %d", i, v)
			}
		}
		for _, s := range b.Src {
			if s < 0 || s >= b.NumSrc {
				return fmt.Errorf("mfg: block %d src %d out of range [0,%d)", i, s, b.NumSrc)
			}
		}
		if i+1 < len(m.Blocks) {
			next := &m.Blocks[i+1]
			if next.NumSrc != b.NumDst {
				return fmt.Errorf("mfg: block %d NumDst %d != block %d NumSrc %d",
					i, b.NumDst, i+1, next.NumSrc)
			}
		}
	}
	return nil
}

// Clone deep-copies the MFG into one contiguous allocation, detaching it
// from any sampler scratch buffers it may alias (samplers with pooled reuse
// invalidate returned MFGs on their next Sample call).
func (m *MFG) Clone() *MFG {
	total := len(m.NodeIDs)
	for i := range m.Blocks {
		total += len(m.Blocks[i].DstPtr) + len(m.Blocks[i].Src)
	}
	backing := make([]int32, 0, total)
	grab := func(src []int32) []int32 {
		start := len(backing)
		backing = append(backing, src...)
		return backing[start:len(backing):len(backing)]
	}
	out := &MFG{Blocks: make([]Block, len(m.Blocks)), Batch: m.Batch}
	out.NodeIDs = grab(m.NodeIDs)
	for i := range m.Blocks {
		b := &m.Blocks[i]
		out.Blocks[i] = Block{
			DstPtr: grab(b.DstPtr),
			Src:    grab(b.Src),
			NumDst: b.NumDst,
			NumSrc: b.NumSrc,
		}
	}
	return out
}
