// Package infer implements the paper's two inference regimes (§5):
//
//   - Sampled: mini-batch inference with neighborhood sampling, reusing the
//     exact training data path (prep executor → model forward). This is the
//     regime SALIENT argues for: bounded memory, reusable code, trivially
//     restrictable to a node subset, distributable.
//
//   - Full: layer-wise full-neighborhood inference, evaluating each layer
//     over the whole graph and materializing every layer's representations
//     in host memory — accurate but memory-hungry (it runs out of memory on
//     ogbn-papers100M in the paper). It runs the model's one Forward over a
//     whole-graph MFG, so both regimes share every layer's code.
//
// It also computes the accuracy-versus-degree profile of Figure 3.
package infer

import (
	"fmt"
	"math"

	"salient/internal/dataset"
	"salient/internal/graph"
	"salient/internal/mfg"
	"salient/internal/nn"
	"salient/internal/prep"
	"salient/internal/sampler"
	"salient/internal/slicing"
	"salient/internal/store"
	"salient/internal/tensor"
)

// Options configures sampled inference.
type Options struct {
	Fanouts   []int // per-layer inference fanouts (Table 6)
	BatchSize int
	Workers   int
	Seed      uint64
	// Store is the feature-access layer inference reads through. Nil
	// selects the flat store over the dataset.
	Store store.FeatureStore
	// Graph is the topology source sampling reads adjacency through. Nil
	// infers over the dataset's static graph; a viewer (e.g. a
	// *graph.Dynamic) pins its latest view for the whole run.
	Graph graph.Viewer
	// Fused runs the fused gather+aggregate pipeline. Requires a model
	// implementing nn.FusedModel (SAGE or GIN) and a store with a fused
	// gather; predictions are bit-identical to the staged path.
	Fused bool
}

func (o *Options) defaults() {
	if o.BatchSize == 0 {
		o.BatchSize = 1024
	}
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Sampled predicts labels for the given nodes with one-shot neighborhood
// sampling, returning predictions aligned with nodes. The model is evaluated
// in inference mode (no dropout); the data path is the SALIENT executor.
func Sampled(m nn.Model, ds *dataset.Dataset, nodes []int32, opts Options) ([]int32, error) {
	opts.defaults()
	if len(opts.Fanouts) != m.Layers() {
		return nil, fmt.Errorf("infer: %d fanouts for a %d-layer %s", len(opts.Fanouts), m.Layers(), m.Name())
	}
	popts := prep.Options{
		Workers:   opts.Workers,
		BatchSize: opts.BatchSize,
		Fanouts:   opts.Fanouts,
		Sampler:   sampler.FastConfig(),
		Store:     opts.Store,
		Graph:     opts.Graph,
	}
	var fm nn.FusedModel
	if opts.Fused {
		var ok bool
		if fm, ok = m.(nn.FusedModel); !ok {
			return nil, fmt.Errorf("infer: fused inference needs a mean/sum first layer; %s has no fused forward", m.Name())
		}
		popts.Fused = fm.FusedOp()
	}
	ex, err := prep.NewSalient(ds, popts)
	if err != nil {
		return nil, err
	}

	pred := make([]int32, len(nodes))
	pos := make(map[int32]int, len(nodes))
	for i, v := range nodes {
		pos[v] = i
	}

	stream := ex.Run(nodes, opts.Seed)
	var firstErr error
	var x *tensor.Dense
	rowPred := make([]int32, opts.BatchSize)
	for b := range stream.C {
		if b.Err != nil || firstErr != nil {
			if firstErr == nil {
				firstErr = b.Err
			}
			b.Release()
			continue
		}
		var logp *tensor.Dense
		if b.Fused != nil {
			logp = fm.ForwardFused(b.Fused.Agg, b.Fused.XT, b.MFG, false)
		} else {
			x = slicing.DecodeInto(x, b.Buf)
			logp = m.Forward(x, b.MFG, false)
		}
		logp.ArgmaxRows(rowPred[:logp.Rows])
		for i := 0; i < logp.Rows; i++ {
			pred[pos[b.Seeds[i]]] = rowPred[i]
		}
		b.Release()
	}
	stream.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return pred, nil
}

// FullThrough runs layer-wise full-neighborhood inference over the whole
// graph and returns predictions for the given nodes. It reads the layer-0
// feature matrix through st, so full inference pays the same gather
// accounting as the rest of the data path. The staged rows decode to
// exactly ds.Feat (the dataset keeps its float32 master equal to the
// widened half-precision rows), so the store changes accounting, never
// predictions; nil skips the gather and uses ds.Feat directly, copy-free.
// A graph with more adjacency entries than an MFG block's int32 edge
// offsets can index is an error.
func FullThrough(m nn.Model, ds *dataset.Dataset, nodes []int32, st store.FeatureStore) ([]int32, error) {
	full, err := wholeGraphMFG(ds.G, m.Layers())
	if err != nil {
		return nil, err
	}
	x := ds.Feat
	if st != nil {
		if err := store.Validate(st, ds, store.ValidateOpts{}); err != nil {
			return nil, fmt.Errorf("infer: %w", err)
		}
		buf := slicing.NewPinned(len(full.NodeIDs), st.Dim(), 0)
		if err := st.Gather(buf, full.NodeIDs, 0); err != nil {
			return nil, err
		}
		x = slicing.DecodeInto(nil, buf)
	}

	logp := m.Forward(x, full, false)
	all := make([]int32, logp.Rows)
	logp.ArgmaxRows(all)
	pred := make([]int32, len(nodes))
	for i, v := range nodes {
		pred[i] = all[v]
	}
	return pred, nil
}

// wholeGraphMFG returns the MFG of full-neighborhood inference over g: one
// block in which every node is both a destination and a source and draws
// its whole adjacency list, shared by all the given layers. Local IDs are
// global IDs, so NodeIDs is the identity.
func wholeGraphMFG(g graph.Topology, layers int) (*mfg.MFG, error) {
	n, e := g.NumNodes(), g.NumEdges()
	if e > math.MaxInt32 {
		return nil, fmt.Errorf("infer: full inference over %d adjacency entries exceeds the int32 edge offsets of an MFG block", e)
	}
	blk := mfg.Block{DstPtr: make([]int32, 1, n+1), Src: make([]int32, 0, e), NumDst: n, NumSrc: n}
	for v := int32(0); v < n; v++ {
		blk.Src = append(blk.Src, g.Neighbors(v)...)
		blk.DstPtr = append(blk.DstPtr, int32(len(blk.Src)))
	}
	full := &mfg.MFG{Blocks: make([]mfg.Block, layers), NodeIDs: make([]int32, n), Batch: n}
	for i := range full.Blocks {
		full.Blocks[i] = blk
	}
	for i := range full.NodeIDs {
		full.NodeIDs[i] = int32(i)
	}
	return full, nil
}

// Accuracy returns the fraction of nodes whose prediction matches labels.
func Accuracy(pred []int32, labels []int32, nodes []int32) float64 {
	if len(nodes) == 0 {
		return 0
	}
	correct := 0
	for i, v := range nodes {
		if pred[i] == labels[v] {
			correct++
		}
	}
	return float64(correct) / float64(len(nodes))
}

// DegreeBin is one point of the Figure 3 profile: prediction accuracy and
// node mass for test nodes whose degree falls in [Lo, Hi).
type DegreeBin struct {
	Lo, Hi   int32
	Count    int
	Accuracy float64
	MassFrac float64 // Count / total nodes profiled (the "degree pdf")
}

// AccuracyByDegree bins the given nodes by degree (geometric bins, factor 2)
// and returns per-bin accuracy and node mass. Empty bins are omitted.
func AccuracyByDegree(g graph.Topology, pred []int32, labels []int32, nodes []int32) []DegreeBin {
	if len(nodes) == 0 {
		return nil
	}
	maxDeg := int32(1)
	for _, v := range nodes {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	nbins := 1
	for hi := int32(1); hi < maxDeg; hi *= 2 {
		nbins++
	}
	counts := make([]int, nbins)
	correct := make([]int, nbins)
	for i, v := range nodes {
		b := binOf(g.Degree(v))
		counts[b]++
		if pred[i] == labels[v] {
			correct[b]++
		}
	}
	var out []DegreeBin
	lo := int32(0)
	hi := int32(1)
	for b := 0; b < nbins; b++ {
		if counts[b] > 0 {
			out = append(out, DegreeBin{
				Lo:       lo,
				Hi:       hi,
				Count:    counts[b],
				Accuracy: float64(correct[b]) / float64(counts[b]),
				MassFrac: float64(counts[b]) / float64(len(nodes)),
			})
		}
		lo = hi
		hi *= 2
	}
	return out
}

// binOf maps degree d to its geometric bin index: 0 for d<1, then
// bin k holds degrees in [2^(k-1), 2^k).
func binOf(d int32) int {
	if d < 1 {
		return 0
	}
	b := 1
	for hi := int32(2); hi <= d; hi *= 2 {
		b++
	}
	return b
}
