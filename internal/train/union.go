package train

import (
	"time"

	"salient/internal/dataset"
	"salient/internal/ddp"
	"salient/internal/nn"
	"salient/internal/prep"
)

// Union is the serial single-replica oracle for Trainer: it executes the
// identical union batch schedule on one model with one executor and one
// goroutine, accumulating each step's R shard gradients and averaging them
// with the same arithmetic (ddp.AverageGradients over stashed gradient
// sets, in replica order) before one optimizer step. Because batch
// contents, dropout keys, averaging order, and optimizer state all match,
// Trainer's final parameters are bit-identical to Union's — the full-loop
// generalization of the averaged-shard-equals-union-batch gradient
// property.
type Union struct {
	DS  *dataset.Dataset
	Cfg Config

	rep   *replica
	stash [][]*nn.Param // R gradient stash sets mirroring the parameters
}

// NewUnion builds the serial union-schedule oracle for cfg. It reads through
// cfg.Store and samples cfg.Graph; per-replica Stores and Graphs are the
// Trainer's and never change batch contents.
func NewUnion(ds *dataset.Dataset, cfg Config) (*Union, error) {
	if err := cfg.normalize(ds); err != nil {
		return nil, err
	}
	rep, err := newReplica(ds, cfg, cfg.Store, cfg.Graph, 0, 1)
	if err != nil {
		return nil, err
	}
	u := &Union{DS: ds, Cfg: cfg, rep: rep}
	for r := 0; r < cfg.Replicas; r++ {
		mirror := make([]*nn.Param, len(rep.params))
		for i, p := range rep.params {
			mirror[i] = &nn.Param{Name: p.Name, G: p.G.Clone()}
		}
		u.stash = append(u.stash, mirror)
	}
	return u, nil
}

// Model returns the oracle's model.
func (u *Union) Model() nn.Model { return u.rep.model }

// TrainEpoch runs one epoch of the union schedule: batches arrive in global
// order; every R consecutive batches (fewer on the final partial step) form
// one gradient-accumulation step.
func (u *Union) TrainEpoch(epoch int) (EpochStats, error) {
	R := u.Cfg.Replicas
	rep := u.rep
	epochSeed := EpochSeed(u.Cfg.Seed, epoch)
	nb := prep.NumBatches(len(u.DS.Train), u.Cfg.BatchSize)
	st := EpochStats{
		Epoch:      epoch,
		Replicas:   R,
		Steps:      ddp.StepsFor(nb, R),
		PerReplica: make([]ReplicaStats, 1),
	}

	start := time.Now()
	stream := rep.exec.Run(prep.EpochPerm(u.DS.Train, epochSeed), epochSeed)
	var firstErr error
	var acc epochAcc
	got := 0
	for {
		waitStart := time.Now()
		b, ok := <-stream.C
		if !ok {
			break
		}
		acc.stats.PrepWait += time.Since(waitStart)
		if b.Err != nil || firstErr != nil {
			if firstErr == nil {
				firstErr = b.Err
			}
			b.Release()
			continue
		}
		cStart := time.Now()
		acc.add(replicaStep(rep.model, &rep.dec, b, epochSeed, rep.pred))
		last := b.Index == nb-1
		b.Release()
		for i, p := range rep.params {
			u.stash[got][i].G.Copy(p.G)
		}
		got++
		if got == R || last {
			ddp.AverageGradients(u.stash[:got])
			for i, p := range rep.params {
				p.G.Copy(u.stash[0][i].G)
			}
			rep.opt.Step(rep.params)
			got = 0
		}
		acc.stats.Compute += time.Since(cStart)
	}
	stream.Wait()
	if firstErr == nil {
		firstErr = stream.Err()
	}
	st.Wall = time.Since(start)
	st.PerReplica[0] = acc.stats
	st.Batches, st.Loss = acc.stats.Batches, acc.lossSum
	st.NodesSeen, st.EdgesSeen = acc.nodes, acc.edges
	st.PrepWait, st.Compute = acc.stats.PrepWait, acc.stats.Compute
	st.finish(acc.correct, acc.rows)
	return st, firstErr
}

// Fit runs n epochs of the union schedule.
func (u *Union) Fit(epochs int) ([]EpochStats, error) {
	return fit(epochs, u.TrainEpoch)
}
