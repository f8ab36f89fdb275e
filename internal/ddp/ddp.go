// Package ddp holds distributed data-parallel GNN training's shared scheme
// (paper §6, Figure 5) and its cost-model simulators.
//
//   - The scheme. StepsFor and ShardSeeds partition an epoch's batches over
//     R replicas; AverageGradients is DDP's gradient all-reduce on real
//     models and SyncParams its parameter broadcast at initialization. The
//     executing trainer (internal/train) and its serial Union oracle run
//     this scheme on real models.
//
//   - Cost-model simulators. SimulateEpoch, SimulateBaselineEpoch and
//     ScalingCurve reproduce the paper's full-scale timing claims in
//     calibrated virtual time: R simulated V100 replicas run the pipelined
//     (or blocking baseline) schedule on their shard of mini-batches and
//     synchronize per step on a modeled ring all-reduce over 10 GigE.
package ddp

import (
	"salient/internal/device"
	"salient/internal/event"
	"salient/internal/nn"
	"salient/internal/prep"
	"salient/internal/rng"
)

const (
	// computeVarDamp scales how much of the neighborhood-size variation
	// reaches GPU compute time (dense work depends mostly on fixed batch
	// and hidden dimensions).
	computeVarDamp = 0.5
	// allReduceOverlap is the fraction of the fastest replica's backward
	// pass available to hide bucketed all-reduce communication behind.
	allReduceOverlap = 0.25
)

// StepsFor returns the number of synchronized gradient steps an epoch of nb
// global batches takes on R replicas — the even split of the global batch
// count shared by the cost-model simulators and the executing trainer.
func StepsFor(nb, replicas int) int {
	return (nb + replicas - 1) / replicas
}

// ShardSeeds returns replica r's deterministic shard of the globally
// shuffled epoch permutation: the concatenation of per-replica batches
// (consecutive chunks of batchSize seeds) r, r+R, r+2R, … Step s of the
// epoch is the union of chunk s·R+r across replicas, so the R shards union,
// in schedule order, to the single-replica epoch. The executing trainer,
// the serial Union oracle, and the simulators all follow this scheme. With
// one replica the shard is perm itself, not a copy.
func ShardSeeds(perm []int32, batchSize, r, replicas int) []int32 {
	if replicas == 1 {
		return perm
	}
	nb := prep.NumBatches(len(perm), batchSize)
	var out []int32
	for c := r; c < nb; c += replicas {
		lo := c * batchSize
		hi := lo + batchSize
		if hi > len(perm) {
			hi = len(perm)
		}
		out = append(out, perm[lo:hi]...)
	}
	return out
}

// Result summarizes a simulated multi-GPU epoch.
type Result struct {
	Replicas  int
	Steps     int     // synchronized gradient steps (StepsFor)
	Epoch     float64 // seconds
	Compute   float64 // per-replica GPU busy time (max over replicas)
	AllReduce float64 // total all-reduce time on the critical path
}

// SimulateEpoch models one SALIENT training epoch on `replicas` GPUs spread
// over machines with gpusPerMachine GPUs each. The global batch count is
// split evenly; per-GPU batch size stays fixed (the paper scales effective
// batch size with GPU count). Replicas run the pipelined schedule and
// synchronize on a per-step gradient all-reduce.
func SimulateEpoch(pr device.Profile, cal device.DatasetCal, replicas, gpusPerMachine int, seed uint64) Result {
	if replicas < 1 {
		panic("ddp: need at least one replica") //lint:allow panicdiscipline documented precondition: replica count is a compile-time-style config error
	}
	steps := StepsFor(cal.Batches, replicas)
	r := rng.New(seed)

	type replica struct {
		pool     *event.Pool
		copyS    *event.Serial
		compS    *event.Serial
		slotFree []float64
	}
	reps := make([]*replica, replicas)
	for i := range reps {
		reps[i] = &replica{
			pool:     event.NewPool("prep", pr.Workers),
			copyS:    event.NewSerial("copy"),
			compS:    event.NewSerial("compute"),
			slotFree: make([]float64, steps),
		}
	}

	contend := 1 + pr.SampleContentionSalient*float64(pr.Workers-1)
	slots := 2 * pr.Workers
	nb := float64(cal.Batches)
	allReduceDur := pr.RingAllReduce(cal.GradBytes, replicas, gpusPerMachine)

	var res Result
	res.Replicas = replicas
	res.Steps = steps
	barrier := pr.EpochStartup

	for s := 0; s < steps; s++ {
		stepEnd := 0.0
		var minTrain float64
		for i, rep := range reps {
			f := device.LogNormalFactor(r.Float64(), cal.SizeCV)
			prepDur := (cal.SampleSec/cal.SampleSpeedup + cal.SliceSec) / nb * f * contend
			// Steady-state epochs (the paper averages over 25): the first
			// slots-worth of batches were prefetched during the previous
			// epoch's tail, so they are ready immediately; later batches
			// wait for a recycled pinned slot.
			var prepEnd float64
			if s >= slots {
				_, prepEnd, _ = rep.pool.RunDynamic(rep.slotFree[s-slots], prepDur)
			}

			td := pr.TransferTime(int64(cal.TransferBytes/nb*f), pr.PipelinedTransferEff)
			_, tEnd := rep.copyS.Run(prepEnd, td)
			rep.slotFree[s] = tEnd

			// GPU compute varies less than neighborhood size: dense-layer
			// work is dominated by the fixed batch and hidden dimensions,
			// only the aggregation scales with sampled edges.
			fc := 1 + (f-1)*computeVarDamp
			tr := cal.TrainSec/nb*fc + pr.KernelLaunchOverhead
			// Compute cannot start before the previous step's barrier
			// (gradients must be applied before the next forward).
			readyC := event.MaxAll(tEnd, barrier)
			_, cEnd := rep.compS.Run(readyC, tr)
			if cEnd > stepEnd {
				stepEnd = cEnd
			}
			if i == 0 || tr < minTrain {
				minTrain = tr
			}
		}
		// Ring all-reduce across all replicas. DDP buckets gradients and
		// overlaps their reduction with the tail of backward, so only the
		// non-overlapped remainder extends the critical path.
		exposed := allReduceDur - allReduceOverlap*minTrain
		if exposed < 0 {
			exposed = 0
		}
		barrier = stepEnd + exposed
		res.AllReduce += exposed
		for _, rep := range reps {
			rep.compS.Run(stepEnd, exposed)
		}
	}
	res.Epoch = barrier
	for _, rep := range reps {
		if b := rep.compS.Busy(); b > res.Compute {
			res.Compute = b
		}
	}
	return res
}

// SimulateBaselineEpoch models one PyG-baseline training epoch on
// `replicas` GPUs: each replica runs the blocking workflow of Figure 1(a)
// on its shard (sampling workers prefetch, but slicing, transfer at 75%
// DMA efficiency, and training all block the main thread), and replicas
// synchronize on a per-step gradient all-reduce with no backward overlap.
func SimulateBaselineEpoch(pr device.Profile, cal device.DatasetCal, replicas, gpusPerMachine int, seed uint64) Result {
	if replicas < 1 {
		panic("ddp: need at least one replica") //lint:allow panicdiscipline documented precondition: replica count is a compile-time-style config error
	}
	steps := StepsFor(cal.Batches, replicas)
	r := rng.New(seed)

	p := pr.Workers
	type replica struct {
		pool      *event.Pool
		sampleEnd []float64
		main      float64
	}
	reps := make([]*replica, replicas)
	for i := range reps {
		reps[i] = &replica{
			pool:      event.NewPool("sample", p),
			sampleEnd: make([]float64, steps),
			main:      pr.EpochStartup,
		}
	}

	sampleContend := 1 + pr.SampleContentionPyG*float64(p-1)
	sliceSpeedup := device.ParallelSpeedup(pr.SliceContentionPyG, p)
	nb := float64(cal.Batches)
	allReduceDur := pr.RingAllReduce(cal.GradBytes, replicas, gpusPerMachine)

	// Sampling workers prefetch the whole shard with static assignment;
	// the DataLoader respawns them each epoch, so no warm start.
	type draw struct{ sample, slice, bytes, train float64 }
	draws := make([][]draw, replicas)
	for i, rep := range reps {
		draws[i] = make([]draw, steps)
		for s := 0; s < steps; s++ {
			f := device.LogNormalFactor(r.Float64(), cal.SizeCV)
			fc := 1 + (f-1)*computeVarDamp
			d := draw{
				sample: cal.SampleSec / nb * f * sampleContend,
				slice:  cal.SliceSec / nb * f / sliceSpeedup,
				bytes:  cal.TransferBytes / nb * f,
				train:  cal.TrainSec/nb*fc + pr.KernelLaunchOverhead,
			}
			draws[i][s] = d
			_, rep.sampleEnd[s] = rep.pool.RunOn(s%p, pr.EpochStartup, d.sample)
		}
	}

	var res Result
	res.Replicas = replicas
	res.Steps = steps
	barrier := pr.EpochStartup
	for s := 0; s < steps; s++ {
		stepEnd := 0.0
		for i, rep := range reps {
			d := draws[i][s]
			if rep.sampleEnd[s] > rep.main {
				rep.main = rep.sampleEnd[s]
			}
			rep.main += d.slice
			rep.main += pr.TransferTime(int64(d.bytes), pr.BaselineTransferEff)
			if barrier > rep.main {
				rep.main = barrier
			}
			rep.main += d.train
			res.Compute += d.train
			if rep.main > stepEnd {
				stepEnd = rep.main
			}
		}
		barrier = stepEnd + allReduceDur
		res.AllReduce += allReduceDur
		for _, rep := range reps {
			rep.main = barrier
		}
	}
	res.Epoch = barrier
	res.Compute /= float64(replicas)
	return res
}

// ScalingCurve simulates epochs for each replica count and returns epoch
// times in order (the Figure 5 series).
func ScalingCurve(pr device.Profile, cal device.DatasetCal, replicaCounts []int, gpusPerMachine int, seed uint64) []Result {
	out := make([]Result, len(replicaCounts))
	for i, n := range replicaCounts {
		out[i] = SimulateEpoch(pr, cal, n, gpusPerMachine, seed)
	}
	return out
}

// AverageGradients averages parameter gradients across replicas in place:
// after the call every replica holds the same averaged gradients. This is
// the semantic core of DDP's all-reduce, used to validate data-parallel
// equivalence with real models. A single participant's gradients are
// already their own average and are left untouched.
func AverageGradients(replicas [][]*nn.Param) {
	if len(replicas) < 2 {
		return
	}
	n := len(replicas[0])
	inv := float32(1) / float32(len(replicas))
	for p := 0; p < n; p++ {
		acc := replicas[0][p].G
		for r := 1; r < len(replicas); r++ {
			acc.Add(replicas[r][p].G)
		}
		acc.Scale(inv)
		for r := 1; r < len(replicas); r++ {
			replicas[r][p].G.Copy(acc)
		}
	}
}

// SyncParams copies replica 0's parameter values into all other replicas
// (the DDP broadcast at initialization).
func SyncParams(replicas [][]*nn.Param) {
	if len(replicas) < 2 {
		return
	}
	for p := range replicas[0] {
		for r := 1; r < len(replicas); r++ {
			replicas[r][p].W.Copy(replicas[0][p].W)
		}
	}
}
