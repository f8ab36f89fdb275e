package nn

import (
	"salient/internal/mfg"
	"salient/internal/slicing"
	"salient/internal/tensor"
)

// FusedModel is implemented by architectures whose first layer can consume a
// fused gather+aggregate batch (slicing.Fused): the pre-aggregated neighbor
// tensor and the widened x_target prefix replace the raw NumSrc×dim feature
// tensor, so layer 1 skips its own aggregation pass.
//
// FusedOp names the aggregation the store-side kernel must run — it must
// match what the first layer would compute itself (mean for SAGE, sum for
// GIN), which is what makes fused training bit-identical to staged training.
// A model's first layer never computes an input gradient, fused or not
// (features are inputs, not parameters), so Backward after a fused forward
// does exactly the work it does after a staged one.
//
// GAT and SAGE-RI do not implement FusedModel: attention weights and
// root-injected residuals need per-edge source rows, not a pre-reduced
// aggregate. Executors must reject a fused pipeline for those architectures
// at wiring time.
type FusedModel interface {
	Model
	// FusedOp returns the aggregation the fused gather must perform.
	FusedOp() slicing.AggOp
	// ForwardFused runs the forward pass from a fused batch: agg and xt are
	// the NumDst×in aggregate and x_target tensors of g's outermost block.
	ForwardFused(agg, xt *tensor.Dense, g *mfg.MFG, train bool) *tensor.Dense
}
