package main

import (
	"fmt"
	"time"

	"salient/internal/dataset"
	"salient/internal/mfg"
	"salient/internal/prep"
	"salient/internal/sampler"
	"salient/internal/slicing"
	"salient/internal/store"
)

// Shapes shared by every workload: the paper's Table 5 SAGE depth and
// fanouts at the paper's batch size.
var fanouts = []int{15, 10, 5}

const (
	batchSize = 1024
	hidden    = 64
)

// genDataset generates a preset stand-in dataset whose generator seed is
// derived from the workload seed, so each seed is a different graph with
// the preset's shape.
func genDataset(name string, scale float64, seed uint64) (*dataset.Dataset, error) {
	cfg := dataset.PresetConfig(name, scale)
	cfg.Seed += seed * 0x9e3779b97f4a7c15
	return dataset.Generate(cfg)
}

// nodeSum fingerprints a batch's sampled node IDs in order; it is cheap
// enough to run on every batch of a timed epoch.
func nodeSum(ids []int32) uint64 {
	h := uint64(len(ids))
	for _, v := range ids {
		h = (h ^ uint64(uint32(v))) * 0x100000001b3
	}
	return h
}

// replayStats is a single-goroutine replay of an executor epoch: the
// per-batch sampling and gather times, the sampled sizes, and the node-ID
// fingerprint of every batch by index.
type replayStats struct {
	sampleMS, gatherMS  []float64
	seeds, nodes, edges int64
	sums                []uint64
	busy                time.Duration // total sample+gather time
}

// replayEpoch prepares the batches prep.Salient would prepare for one epoch
// over seeds keyed by epochSeed — the same schedule (prep.EpochPerm), the
// same per-batch RNG (prep.BatchSeed) and the same sampler design — by
// calling sampler.SampleInto and store.Gather directly, one batch at a
// time.
func replayEpoch(ds *dataset.Dataset, st store.FeatureStore, seeds []int32, epochSeed uint64) (*replayStats, error) {
	perm := prep.EpochPerm(seeds, epochSeed)
	sm := sampler.New(ds.G, fanouts, sampler.FastConfig())
	rows := prep.MaxRowsEstimate(batchSize, fanouts, int(ds.G.N))
	buf := slicing.NewPinned(rows, ds.FeatDim, batchSize)
	var m mfg.MFG
	rs := &replayStats{}
	for i := 0; i*batchSize < len(perm); i++ {
		hi := min((i+1)*batchSize, len(perm))
		batch := perm[i*batchSize : hi]
		r := prep.BatchRNG(epochSeed, i)
		t0 := time.Now()
		if err := sm.SampleInto(r, batch, &m); err != nil {
			return nil, fmt.Errorf("replay batch %d: %w", i, err)
		}
		t1 := time.Now()
		if err := st.Gather(buf, m.NodeIDs, len(batch)); err != nil {
			return nil, fmt.Errorf("replay batch %d: %w", i, err)
		}
		t2 := time.Now()
		rs.sampleMS = append(rs.sampleMS, ms(t1.Sub(t0)))
		rs.gatherMS = append(rs.gatherMS, ms(t2.Sub(t1)))
		rs.busy += t2.Sub(t0)
		rs.seeds += int64(len(batch))
		rs.nodes += int64(m.TotalNodes())
		rs.edges += int64(m.TotalEdges())
		rs.sums = append(rs.sums, nodeSum(m.NodeIDs))
	}
	return rs, nil
}

// put records the replay's sampler and store metrics.
func (rs *replayStats) put(v map[string]float64) {
	v["sampler.sample_ms"] = median(rs.sampleMS)
	v["store.gather_ms"] = median(rs.gatherMS)
	v["sampler.nodes_per_seed"] = float64(rs.nodes) / float64(rs.seeds)
	v["sampler.edges_per_seed"] = float64(rs.edges) / float64(rs.seeds)
}
