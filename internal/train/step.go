package train

import (
	"salient/internal/nn"
	"salient/internal/prep"
	"salient/internal/slicing"
	"salient/internal/tensor"
)

// EpochSeed derives the per-epoch shuffling/sampling seed from the training
// seed — one definition shared by the Trainer, the Union oracle and any
// caller that drives the layers directly, so all walk the same epoch
// permutations.
func EpochSeed(seed uint64, epoch int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(epoch) + 1
}

// DropoutSeed derives the per-batch dropout RNG key for models implementing
// nn.DropoutReseeder. Keying dropout by (epoch seed, global batch index) —
// with a multiplier distinct from prep.BatchRNG's, so dropout and sampling
// draws stay uncorrelated — makes a batch's stochastic masks independent of
// which replica executes it and in which order, the property behind the
// data-parallel bit-reproducibility guarantee.
func DropoutSeed(epochSeed uint64, globalIndex int) uint64 {
	return epochSeed ^ (uint64(globalIndex)+1)*0xd1342543de82ef95
}

// Decoder owns the reusable float32 tensor that staged half-precision
// batches are widened into (the GPU-side conversion in the paper), plus the
// reusable per-batch gradient scratch. Each consumer goroutine owns one
// Decoder; it is not safe for concurrent use.
type Decoder struct {
	features *tensor.Dense
	grad     *tensor.Dense
}

// Decode widens buf into the decoder's reusable tensor and returns it. The
// tensor is valid until the next Decode call; its backing array is recycled
// across batches (grown only when a batch stages more rows than any before),
// so steady-state decoding allocates nothing.
//
//salient:noalloc
func (d *Decoder) Decode(buf *slicing.Pinned) *tensor.Dense {
	d.features = slicing.DecodeInto(d.features, buf)
	return d.features
}

// Grad returns the decoder's recycled rows×cols output-gradient scratch,
// valid until the next Grad call. Contents are unspecified; the loss
// computation overwrites them.
//
//salient:noalloc
func (d *Decoder) Grad(rows, cols int) *tensor.Dense {
	d.grad = tensor.Reshape(d.grad, rows, cols)
	return d.grad
}

// stepStats summarizes one replica step: one batch's forward/backward.
type stepStats struct {
	Loss    float64 // mean NLL over the batch's seed rows
	Correct int     // correctly predicted seed rows
	Rows    int     // seed rows in the batch
	Nodes   int     // expanded-neighborhood rows processed
	Edges   int
}

// replicaStep is the epoch body of mini-batch training — decode the staged
// batch, re-key dropout by (epochSeed, batch.GlobalIndex), forward, NLL
// loss, backward — shared by the Trainer's replicas and the Union oracle so
// both run the identical computation. Gradients are zeroed and then left
// accumulated in the model's parameters; the caller owns the update policy
// (cross-replica averaging, then an optimizer step). pred is
// caller-provided argmax scratch with capacity for at least the batch's
// seed rows.
func replicaStep(model nn.Model, dec *Decoder, b *prep.Batch, epochSeed uint64, pred []int32) stepStats {
	if rs, ok := model.(nn.DropoutReseeder); ok {
		rs.ReseedDropout(DropoutSeed(epochSeed, b.GlobalIndex))
	}
	logp := forwardBatch(model, dec, b)
	labels := b.Labels()
	grad := dec.Grad(logp.Rows, logp.Cols) // NLLLoss zeroes it before writing
	st := stepStats{Rows: logp.Rows, Nodes: b.MFG.TotalNodes(), Edges: b.MFG.TotalEdges()}
	st.Loss = tensor.NLLLoss(logp, labels, grad)
	logp.ArgmaxRows(pred[:logp.Rows])
	for i := 0; i < logp.Rows; i++ {
		if pred[i] == labels[i] {
			st.Correct++
		}
	}
	nn.ZeroGrad(model.Params())
	model.Backward(grad)
	return st
}

// forwardBatch runs the model forward over a prepared batch on whichever
// path the executor staged it: the fused pre-aggregated tensors feed
// nn.FusedModel.ForwardFused directly (no decode pass), a staged buffer is
// widened and fed to the ordinary Forward. The two paths are bit-identical
// for SAGE/GIN — the fused kernel aggregates in the same edge order the
// first layer would.
func forwardBatch(model nn.Model, dec *Decoder, b *prep.Batch) *tensor.Dense {
	if b.Fused != nil {
		fm, ok := model.(nn.FusedModel)
		if !ok {
			panic("train: fused batch for a model without ForwardFused (executor/model wiring bug)") //lint:allow panicdiscipline wiring bug: New validates fused configs, so a fused batch reaching a non-fused model is programmer error
		}
		return fm.ForwardFused(b.Fused.Agg, b.Fused.XT, b.MFG, true)
	}
	x := dec.Decode(b.Buf)
	return model.Forward(x, b.MFG, true)
}
