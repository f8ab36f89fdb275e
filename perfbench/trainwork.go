package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"salient/internal/dataset"
	"salient/internal/nn"
	"salient/internal/prep"
	"salient/internal/sampler"
	"salient/internal/store"
	"salient/internal/tensor"
	"salient/internal/train"
)

const (
	// arxivScale halves the arxiv preset (8.5K nodes, 4.6K training seeds)
	// so a 1024-seed step of a 3-layer SAGE fits a 2-core box.
	arxivScale = 0.5
	// trainEpochs is one round of training work: this many epochs from a
	// freshly initialised model.
	trainEpochs = 1
)

func trainConfig(seed uint64) train.Config {
	return train.Config{
		Arch: "SAGE", Hidden: hidden, Layers: len(fanouts), Fanouts: fanouts,
		BatchSize: batchSize, LR: 3e-3, Workers: 1, Seed: seed,
	}
}

// trainRound is one round of training: per-epoch losses and step times.
type trainRound struct {
	wall    time.Duration
	losses  []float64
	stepsMS []float64 // mean step time of each epoch
	batches int
	bytes   int64 // feature bytes the store moved
	rows    int64
}

// fitRound trains a fresh train.Trainer for trainEpochs epochs.
func fitRound(ds *dataset.Dataset, seed uint64) (trainRound, error) {
	tr, err := train.New(ds, trainConfig(seed))
	if err != nil {
		return trainRound{}, err
	}
	start := time.Now()
	stats, err := tr.Fit(trainEpochs)
	r := trainRound{wall: time.Since(start)}
	if err != nil {
		return r, err
	}
	for _, s := range stats {
		r.losses = append(r.losses, s.Loss)
		r.stepsMS = append(r.stepsMS, ms(s.Wall)/float64(s.Batches))
		r.batches += s.Batches
	}
	st := tr.FeatureStore().Stats()
	r.bytes, r.rows = st.BytesMoved, st.RowsMoved
	return r, nil
}

// stepTimes are the traced loop's per-step layer times.
type stepTimes struct {
	waitMS, decodeMS, forwardMS, backwardMS, adamMS []float64
	busy                                            []time.Duration
	wall                                            time.Duration
	sums                                            []uint64 // epoch 0 batch fingerprints
}

// tracedRound performs fitRound's computation by driving the layers
// directly — prep.Salient.Run, train.Decoder.Decode, model.Forward,
// tensor.NLLLoss, model.Backward, nn.Adam.Step — and times each call. Its
// losses must equal fitRound's bit for bit.
func tracedRound(ds *dataset.Dataset, seed uint64, t *stepTimes) (trainRound, error) {
	cfg := trainConfig(seed)
	model, err := train.NewModel(cfg.Arch, nn.ModelConfig{
		In: ds.FeatDim, Hidden: cfg.Hidden, Out: ds.NumClasses, Layers: cfg.Layers, Seed: cfg.Seed,
	})
	if err != nil {
		return trainRound{}, err
	}
	opt := nn.NewAdam(model.Params(), cfg.LR)
	st := store.NewFlat(ds)
	ex, err := prep.NewSalient(ds, prep.Options{
		Workers: cfg.Workers, BatchSize: cfg.BatchSize, Fanouts: cfg.Fanouts,
		Sampler: sampler.FastConfig(), Ordered: true, Store: st,
	})
	if err != nil {
		return trainRound{}, err
	}
	var dec train.Decoder
	var r trainRound
	start := time.Now()
	for epoch := 0; epoch < trainEpochs; epoch++ {
		epochSeed := train.EpochSeed(cfg.Seed, epoch)
		epochStart := time.Now()
		stream := ex.Run(ds.Train, epochSeed)
		var loss float64
		batches := 0
		var failed error
		for {
			t0 := time.Now()
			b, ok := <-stream.C
			if !ok {
				break
			}
			t1 := time.Now()
			if b.Err != nil || failed != nil {
				if failed == nil {
					failed = b.Err
				}
				b.Release()
				continue
			}
			if epoch == 0 && t.sums != nil {
				t.sums[b.Index] = nodeSum(b.MFG.NodeIDs)
			}
			if rs, ok := model.(nn.DropoutReseeder); ok {
				rs.ReseedDropout(train.DropoutSeed(epochSeed, b.GlobalIndex))
			}
			x := dec.Decode(b.Buf)
			t2 := time.Now()
			logp := model.Forward(x, b.MFG, true)
			t3 := time.Now()
			grad := dec.Grad(logp.Rows, logp.Cols)
			loss += tensor.NLLLoss(logp, b.Labels(), grad)
			nn.ZeroGrad(model.Params())
			t4 := time.Now()
			model.Backward(grad)
			t5 := time.Now()
			opt.Step(model.Params())
			t6 := time.Now()
			b.Release()
			batches++
			t.waitMS = append(t.waitMS, ms(t1.Sub(t0)))
			t.decodeMS = append(t.decodeMS, ms(t2.Sub(t1)))
			t.forwardMS = append(t.forwardMS, ms(t3.Sub(t2)))
			t.backwardMS = append(t.backwardMS, ms(t5.Sub(t4)))
			t.adamMS = append(t.adamMS, ms(t6.Sub(t5)))
		}
		stream.Wait()
		if failed == nil {
			failed = stream.Err()
		}
		if failed != nil {
			return r, fmt.Errorf("traced epoch %d: %w", epoch, failed)
		}
		busy, _ := stream.WorkerStats()
		t.busy = append(t.busy, busy...)
		r.losses = append(r.losses, loss/float64(batches))
		r.stepsMS = append(r.stepsMS, ms(time.Since(epochStart))/float64(batches))
		r.batches += batches
	}
	r.wall = time.Since(start)
	t.wall += r.wall
	stats := st.Stats()
	r.bytes, r.rows = stats.BytesMoved, stats.RowsMoved
	return r, nil
}

// runTrainSage is the compute-bound workload: SAGE training on arxiv,
// where the model does nearly all the work and one prep worker hides
// behind it.
func runTrainSage(cfg config) (*report, error) {
	rep := newReport()
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	var genMS []float64
	var untraced []trainRound
	var allocs []uint64
	ds, setupS, err := perBuild(seconds, func() (*dataset.Dataset, error) {
		t0 := time.Now()
		ds, err := genDataset(dataset.Arxiv, arxivScale, cfg.seed)
		if err != nil {
			return nil, err
		}
		genMS = append(genMS, ms(time.Since(t0)))
		_, err = train.New(ds, trainConfig(cfg.seed))
		return ds, err
	}, func(*dataset.Dataset) {}, func(ds *dataset.Dataset, seconds float64) error {
		if _, err := fitRound(ds, cfg.seed+1); err != nil { // warm-up
			return err
		}
		var err error
		allocs, err = rounds(seconds, 2, func(int) (time.Duration, error) {
			r, err := fitRound(ds, cfg.seed)
			untraced = append(untraced, r)
			return r.wall, err
		})
		return err
	})
	if err != nil {
		return nil, err
	}

	// Every round trains a fresh trainer on the same seed, so every round
	// must end at the same loss, bit for bit.
	final := func(r trainRound) float64 { return r.losses[len(r.losses)-1] }
	loss := final(untraced[0])
	agree := 0
	var rates, steps []float64
	var nSeeds, bytes int64
	for _, r := range untraced {
		if final(r) == loss {
			agree++
		}
		rates = append(rates, float64(trainEpochs*len(ds.Train))/r.wall.Seconds())
		steps = append(steps, r.stepsMS...)
		nSeeds += int64(trainEpochs * len(ds.Train))
		bytes += r.bytes
		rep.attempted += int64(r.batches)
	}
	rep.check(agree == len(untraced), "train-sage: %d of %d fresh trainers on one seed ended at a different loss", len(untraced)-agree, len(untraced))
	rep.check(!math.IsNaN(loss) && loss > 0, "train-sage: final loss %v", loss)

	v := rep.values
	v["setup_s"] = setupS
	v["seeds_per_s"] = median(rates)
	v["latency_p50_ms"] = quantile(steps, 0.5)
	v["latency_p90_ms"] = quantile(steps, 0.9)
	v["ok_frac"] = 1
	v["peak_rss_mb"] = peakRSSMB()
	v["feature_kb_per_seed"] = float64(bytes) / 1024 / float64(nSeeds)
	v["alloc_kb_per_seed"] = allocKBPerSeed(allocs, func(int) int64 { return int64(trainEpochs * len(ds.Train)) })
	v["oracle_agree_frac"] = float64(agree) / float64(len(untraced))
	if !cfg.trace {
		return rep, nil
	}

	t := &stepTimes{sums: make([]uint64, prep.NumBatches(len(ds.Train), batchSize))}
	var traced []trainRound
	gc0 := readGC()
	if _, err := rounds(seconds, 2, func(int) (time.Duration, error) {
		r, err := tracedRound(ds, cfg.seed, t)
		traced = append(traced, r)
		return r.wall, err
	}); err != nil {
		return nil, err
	}
	gcFrac := gc0.since()
	for i, r := range traced {
		rep.check(final(r) == loss, "train-sage: traced round %d loss %v, untraced %v", i, final(r), loss)
	}
	replay, err := replayEpoch(ds, store.NewFlat(ds), ds.Train, train.EpochSeed(cfg.seed, 0))
	if err != nil {
		return nil, err
	}
	rep.check(slices.Equal(replay.sums, t.sums), "train-sage: replayed batches differ from the executor's")

	var tracedRates []float64
	var rows int64
	for _, r := range traced {
		tracedRates = append(tracedRates, float64(trainEpochs*len(ds.Train))/r.wall.Seconds())
		rows += r.rows
	}
	var busy time.Duration
	for _, b := range t.busy {
		busy += b
	}
	v["trace.overhead_frac"] = median(rates)/median(tracedRates) - 1
	v["dataset.gen_ms"] = median(genMS)
	replay.put(v)
	v["store.rows_per_seed"] = float64(rows) / float64(len(traced)*trainEpochs*len(ds.Train))
	v["cache.hit_rate"] = 0
	v["prep.wait_ms"] = mean(t.waitMS)
	v["prep.worker_busy_frac"] = busy.Seconds() / t.wall.Seconds()
	v["prep.overhead_frac"] = 1 - replay.busy.Seconds()*float64(len(traced)*trainEpochs)/t.wall.Seconds()
	v["train.decode_ms"] = median(t.decodeMS)
	v["train.final_loss"] = loss
	v["nn.forward_ms"] = median(t.forwardMS)
	v["nn.backward_ms"] = median(t.backwardMS)
	v["nn.adam_ms"] = median(t.adamMS)
	v["runtime.gc_cpu_frac"] = gcFrac
	unused(v, "graph.versions", "graph.compactions", "serve.occupancy", "serve.server_p50_ms",
		"fleet.route_ms", "fleet.balance", "fleet.write_p50_ms", "embcache.hit_rate")
	return rep, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
