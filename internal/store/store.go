// Package store is the feature-access layer of the data path: every
// consumer that needs the feature rows of a sampled mini-batch — the
// training executors (internal/prep), sampled and full inference
// (internal/infer), and the online serving layer (internal/serve) — reads
// them through one FeatureStore interface instead of reaching into
// dataset.Dataset's flat arrays.
//
// The paper's batch-preparation analysis (§4.2) and its future-work section
// (§8, citing GNS and Zero-Copy caching) both center on the same
// bottleneck: moving feature rows from host memory to the device. Pulling
// that movement behind one interface lets the layout and the transfer
// policy vary independently of the consumers:
//
//   - Flat is the seed behavior: one contiguous row-major array, every row
//     transferred for every batch.
//   - Sharded lays the rows out in P shards per a partition.Assignment and
//     gathers shard-parallel, accounting rows that cross shard boundaries —
//     the feature-path half of the distributed setting §8 sketches, where
//     placement quality (LDG versus random) directly changes network traffic.
//   - Cached wraps any store with a device-resident row cache
//     (internal/cache), so resident rows stop being charged transfer — the
//     GNS/Zero-Copy extension, now on the real data path rather than as an
//     isolated simulation.
//
// All implementations stage bit-identical batch contents; they differ only
// in physical layout, gather parallelism, and transfer accounting.
package store

import (
	"fmt"

	"salient/internal/dataset"
	"salient/internal/half"
	"salient/internal/mfg"
	"salient/internal/slicing"
)

// Stats accumulates gather-side transfer accounting for a store. Bytes
// count feature payload only, at the store's storage precision
// (half.Precision.RowBytes: fp32 = 4 bytes/scalar, fp16 = 2, int8 = 1 plus
// one float32 scale per row — NOT a fixed 2 bytes/scalar); label and
// MFG-index bytes are accounted by the batch (prep.Batch.TransferBytes),
// not the store.
type Stats struct {
	Gathers int64 // Gather calls served
	Rows    int64 // feature rows requested across all gathers

	RowsMoved  int64 // rows actually transferred host -> device
	BytesMoved int64 // RowsMoved × rowBytes

	RowsSaved  int64 // rows served from device-resident cache (Cached only)
	BytesSaved int64 // RowsSaved × rowBytes

	// RowsRemote counts rows fetched from a non-home shard (Sharded). A
	// Cached(Sharded) composition counts only cache-missing off-shard rows:
	// resident rows cost no network wherever their master copy lives.
	RowsRemote  int64
	BytesRemote int64 // RowsRemote × rowBytes

	CacheLookups int64 // row residency lookups (Cached only)
	CacheHits    int64 // lookups that found the row resident
}

// HitRate returns the fraction of cache lookups served from residency.
func (s Stats) HitRate() float64 {
	if s.CacheLookups == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheLookups)
}

// RemoteFrac returns the fraction of gathered rows that crossed a shard
// boundary.
func (s Stats) RemoteFrac() float64 {
	if s.Rows == 0 {
		return 0
	}
	return float64(s.RowsRemote) / float64(s.Rows)
}

// FeatureStore is the one feature-access abstraction the data path shares.
// Gather stages the feature rows for nodeIDs — and the labels of the first
// batch entries, the seed prefix — into dst, exactly as the slicing kernels
// lay a batch out, and charges the store's transfer accounting.
//
// Implementations must be safe for concurrent Gather calls: the batch
// preparation executors gather from multiple workers at once.
type FeatureStore interface {
	// Dim returns the feature dimensionality.
	Dim() int
	// NumNodes returns the number of feature rows held.
	NumNodes() int
	// Precision returns the storage precision rows are held and moved at.
	Precision() half.Precision
	// Gather stages features for nodeIDs and labels for the seed prefix
	// (the first batch entries) into dst.
	Gather(dst *slicing.Pinned, nodeIDs []int32, batch int) error
	// Stats returns the accumulated transfer accounting.
	Stats() Stats
	// ResetStats clears the accounting (never residency or layout).
	ResetStats()
}

// ValidateOpts selects Validate's row-count policy.
type ValidateOpts struct {
	// AllowGrown accepts stores holding MORE rows than the dataset — the
	// dynamic-graph setting, where nodes appended online make the store
	// legitimately larger than the dataset it started from. The
	// dimensionality must still match exactly; per-gather ID range checks
	// cover the rest.
	AllowGrown bool
}

// Validate verifies st is shape-compatible with ds, so consumers reject a
// store built over the wrong dataset loudly at wiring time instead of deep
// in a gather or a forward pass. It is the ONE dim/row compatibility check
// on the data path: the transport handshake (internal/transport, via
// ValidateShape) and every local consumer apply the same rule.
func Validate(st FeatureStore, ds *dataset.Dataset, opts ValidateOpts) error {
	return ValidateShape(st.Dim(), st.NumNodes(), ds.FeatDim, int(ds.G.N), opts.AllowGrown)
}

// ValidateShape is the shared shape-compatibility rule behind Validate: a
// holder of gotRows×gotDim serves a consumer needing wantRows×wantDim iff
// the dimensionalities match exactly and the row count matches exactly
// (allowGrown false) or meets the floor (allowGrown true). Remote stores
// apply it to a peer's handshake-advertised shape with the same semantics
// local wiring gets.
func ValidateShape(gotDim, gotRows, wantDim, wantRows int, allowGrown bool) error {
	if allowGrown {
		if gotDim != wantDim || gotRows < wantRows {
			return fmt.Errorf("store holds %d×%d, dataset needs ≥%d×%d",
				gotRows, gotDim, wantRows, wantDim)
		}
		return nil
	}
	if gotDim != wantDim || gotRows != wantRows {
		return fmt.Errorf("store holds %d×%d, dataset is %d×%d",
			gotRows, gotDim, wantRows, wantDim)
	}
	return nil
}

// Appendable is implemented by stores that can grow with a dynamic graph:
// AppendRows appends len(labels) feature rows (feat is row-major float32,
// len(labels)×Dim, encoded to the store's half-precision host layout) and
// returns the ID of the first appended row. New rows are immediately
// gatherable; appends are safe against concurrent Gathers.
//
// The returned first-row ID is the coordination contract with
// graph.Dynamic.AddNodes: callers growing graph and store together (the
// serving layer's AddNode) perform both in one critical section and check
// the IDs agree. Flat implements Appendable (and Cached forwards to an
// appendable inner store); Sharded does not — node growth requires a
// repartition, which is future work (see ROADMAP).
type Appendable interface {
	AppendRows(feat []float32, labels []int32) (int32, error)
}

// StripedGatherer is implemented by stores whose gather supports the
// statically striped parallel kernel (PyTorch's OpenMP-style slicing). The
// PyG executor uses it when available to preserve the Table 2 comparison;
// stores without static stripes fall back to Gather.
type StripedGatherer interface {
	GatherStriped(dst *slicing.Pinned, nodeIDs []int32, batch, nWorkers int, run func(stripes []func())) error
}

// FusedGatherer is implemented by stores that support the fused
// gather+aggregate kernel: one pass over the stored rows of the outermost
// MFG block that widens and accumulates the first GNN layer's mean/sum
// aggregate (plus the x_target prefix and seed labels) with no staged
// NumSrc×dim tensor. Results are bit-identical to Gather followed by
// DecodeFeatures and the layer's own aggregation. All three built-in stores
// implement it; executors requested a fused pipeline over a store that does
// not must fail loudly at wiring time.
type FusedGatherer interface {
	GatherAggregate(dst *slicing.Fused, nodeIDs []int32, blk *mfg.Block, batch int, op slicing.AggOp) error
}
