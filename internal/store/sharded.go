package store

import (
	"fmt"
	"sync"

	"salient/internal/dataset"
	"salient/internal/half"
	"salient/internal/mfg"
	"salient/internal/partition"
	"salient/internal/slicing"
)

// Sharded lays the feature matrix out in P per-shard contiguous arrays
// following a partition.Assignment, the physical layout of the distributed
// setting §8 sketches: shard p holds exactly the rows of the nodes assigned
// to part p, in placement order, at the store's storage precision.
//
// Gather runs shard-parallel — one goroutine per shard copies that shard's
// rows into their batch positions — and accounts cross-shard traffic: the
// batch's home shard is the part of its first seed node (nodeIDs[0]; the
// MFG convention puts seeds first), standing in for the GPU/host that
// consumes the batch, and every row living on another shard is one remote
// feature fetch. Partition-aware consumers that build part-local seed
// batches see this fraction collapse under LDG placement and stay near
// (P-1)/P under random placement — the measurable difference placement
// quality makes to the feature path.
type Sharded struct {
	dim    int
	prec   half.Precision
	n      int
	parts  int
	part   []int32       // node -> shard
	local  []int32       // node -> row index within its shard
	shards []half.Matrix // per-shard row-major feature storage
	labels []int32

	mu    sync.Mutex
	stats Stats
}

// NewSharded builds the sharded store over ds at storage precision prec,
// physically re-laying the feature rows per assignment a and re-encoding
// each row from the dataset's fp16 master values as it is laid into its
// shard.
func NewSharded(ds *dataset.Dataset, a *partition.Assignment, prec half.Precision) (*Sharded, error) {
	n := int(ds.G.N)
	if len(a.Part) != n {
		return nil, fmt.Errorf("store: assignment covers %d nodes, dataset has %d", len(a.Part), n)
	}
	if a.Parts < 1 {
		return nil, fmt.Errorf("store: assignment has %d parts", a.Parts)
	}
	s := &Sharded{
		dim:    ds.FeatDim,
		prec:   prec,
		n:      n,
		parts:  a.Parts,
		part:   append([]int32(nil), a.Part...),
		local:  make([]int32, n),
		shards: make([]half.Matrix, a.Parts),
		labels: ds.Labels,
	}
	counts := make([]int, a.Parts)
	for v, p := range s.part {
		if p < 0 || int(p) >= a.Parts {
			return nil, fmt.Errorf("store: node %d assigned to part %d of %d", v, p, a.Parts)
		}
		counts[p]++
	}
	for p, c := range counts {
		s.shards[p].Ensure(c, s.dim, prec)
	}
	next := make([]int32, a.Parts)
	scratch := make([]float32, s.dim)
	for v := 0; v < n; v++ {
		p := s.part[v]
		s.local[v] = next[p]
		s.shards[p].SetFromFP16(int(next[p]), ds.FeatHalf[v*s.dim:(v+1)*s.dim], scratch)
		next[p]++
	}
	return s, nil
}

// Dim returns the feature dimensionality.
func (s *Sharded) Dim() int { return s.dim }

// Precision returns the storage precision rows are held (and moved) at.
func (s *Sharded) Precision() half.Precision { return s.prec }

// NumNodes returns the number of feature rows held.
func (s *Sharded) NumNodes() int { return s.n }

// Part returns the shard holding node v's row.
func (s *Sharded) Part(v int32) int32 { return s.part[v] }

// shardedSource adapts the sharded layout to slicing.Source: row accesses
// indirect through part/local, so the fused kernel runs over shards exactly
// as it runs over a flat matrix, with bit-identical results.
type shardedSource struct{ s *Sharded }

func (v shardedSource) Dim() int                  { return v.s.dim }
func (v shardedSource) Precision() half.Precision { return v.s.prec }

func (v shardedSource) Row(id int32) (*half.Matrix, int) {
	return &v.s.shards[v.s.part[id]], int(v.s.local[id])
}

func (v shardedSource) Label(id int32) int32 { return v.s.labels[id] }

// Gather stages the batch with one gather goroutine per shard, each copying
// its resident rows into their batch positions (disjoint destinations, no
// synchronization inside the scan).
func (s *Sharded) Gather(dst *slicing.Pinned, nodeIDs []int32, batch int) error {
	if batch > len(nodeIDs) {
		return fmt.Errorf("store: batch %d > nodes %d", batch, len(nodeIDs))
	}
	if err := checkIDs(nodeIDs, s.n); err != nil {
		return err
	}
	dst.Ensure(len(nodeIDs), s.dim, batch, s.prec)
	var wg sync.WaitGroup
	for p := 0; p < s.parts; p++ {
		wg.Add(1)
		go func(p int32) {
			defer wg.Done()
			// Each shard scans the whole ID list and claims its rows; for
			// the small shard counts of interest this beats allocating
			// per-shard index buckets on every gather.
			shard := &s.shards[p]
			for i, id := range nodeIDs {
				if s.part[id] != p {
					continue
				}
				dst.CopyRow(i, shard, int(s.local[id]))
			}
		}(int32(p))
	}
	wg.Wait()
	for i := 0; i < batch; i++ {
		dst.Labels[i] = s.labels[nodeIDs[i]]
	}
	s.account(nodeIDs)
	return nil
}

// GatherAggregate implements FusedGatherer over the sharded layout via
// shardedSource. The fused kernel is destination-parallel rather than
// shard-parallel, so it runs serially here. Transfer accounting matches Gather — each row is still read once, remote rows
// still cross a shard boundary.
func (s *Sharded) GatherAggregate(dst *slicing.Fused, nodeIDs []int32, blk *mfg.Block, batch int, op slicing.AggOp) error {
	if err := checkIDs(nodeIDs, s.n); err != nil {
		return err
	}
	if err := slicing.GatherAggregate(dst, shardedSource{s}, nodeIDs, blk, batch, op); err != nil {
		return err
	}
	s.account(nodeIDs)
	return nil
}

// account charges one gather over nodeIDs, counting rows living on a shard
// other than the batch's home (the first seed's part) as remote.
func (s *Sharded) account(nodeIDs []int32) {
	remote := 0
	if len(nodeIDs) > 0 {
		home := s.part[nodeIDs[0]]
		for _, id := range nodeIDs {
			if s.part[id] != home {
				remote++
			}
		}
	}
	rowBytes := s.prec.RowBytes(s.dim)
	s.mu.Lock()
	s.stats.Gathers++
	s.stats.Rows += int64(len(nodeIDs))
	s.stats.RowsMoved += int64(len(nodeIDs))
	s.stats.BytesMoved += int64(len(nodeIDs)) * rowBytes
	s.stats.RowsRemote += int64(remote)
	s.stats.BytesRemote += int64(remote) * rowBytes
	s.mu.Unlock()
}

// Stats returns the accumulated transfer accounting.
func (s *Sharded) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats clears the accounting (the shard layout is untouched).
func (s *Sharded) ResetStats() {
	s.mu.Lock()
	s.stats = Stats{}
	s.mu.Unlock()
}
