// Package sampler implements node-wise neighborhood sampling with the
// parameterized design space explored in the paper (§4.1, Figure 2).
//
// The base algorithm: given seed nodes Vb and per-layer fanouts d, sample for
// each frontier node up to d of its neighbors without replacement, assign
// newly discovered global node IDs consecutive local IDs, and emit the
// resulting bipartite block. Repeating per hop yields the message-flow graph
// (MFG) for the mini-batch.
//
// The paper identifies three dominant implementation choices — the
// global-to-local node-ID map, the without-replacement dedup structure, and
// whether sampling is fused with MFG construction — and explores them (plus
// buffer-reuse policy) over 96 parameter instantiations. This package
// implements each axis for real:
//
//	IDMap:  stdlib map / flat swiss-table map / pre-sized flat map /
//	        direct generation-tagged array
//	Dedup:  stdlib map set / flat swiss-table set / linear array scan /
//	        partial Fisher–Yates on a neighbor copy
//	Build:  two-phase (sample into buffer, then map) / fused
//	Reuse:  fresh allocations per batch / pooled ID structures /
//	        pooled everything (ID structures + edge and scratch buffers)
//
// 4 × 4 × 2 × 3 = 96 configurations, matching Figure 2. The tuned
// production configuration (FastConfig) is flat map + array scan + fused +
// pooled-everything; the baseline (BaselineConfig) models PyG's sampler:
// stdlib hash map + hash set + two-phase + fresh allocations.
//
// One loop draws every MFG: SampleInto, which writes into buffers the
// CALLER owns — one slot of a recycled batch arena in internal/prep — and
// always pools the sampler's internal scratch, so steady-state production
// sampling performs zero heap allocations. Sample, the design-sweep entry
// point, applies the Reuse axis through the buffers it passes to
// SampleInto: a new ID map (Fresh), a fresh output and phase scratch
// (Fresh, PooledMaps), or the sampler's pooled output (PooledAll).
package sampler

import "fmt"

// IDMapKind selects the global-to-local node ID mapping structure.
type IDMapKind uint8

const (
	IDMapStd     IDMapKind = iota // Go built-in map[int32]int32 (chained-hash analogue)
	IDMapFlat                     // swiss-table flat hash map
	IDMapFlatPre                  // flat map pre-sized to the expected neighborhood
	IDMapDirect                   // generation-tagged dense array indexed by global ID
	numIDMapKinds
)

func (k IDMapKind) String() string {
	switch k {
	case IDMapStd:
		return "idmap=std"
	case IDMapFlat:
		return "idmap=flat"
	case IDMapFlatPre:
		return "idmap=flatpre"
	case IDMapDirect:
		return "idmap=direct"
	}
	return fmt.Sprintf("idmap=?%d", uint8(k))
}

// DedupKind selects the without-replacement sampling structure.
type DedupKind uint8

const (
	DedupStdSet      DedupKind = iota // map[int32]struct{} per node
	DedupFlatSet                      // flat swiss-table set, reset per node
	DedupArray                        // linear scan over the ≤fanout chosen values
	DedupFisherYates                  // partial Fisher–Yates shuffle of a neighbor copy
	numDedupKinds
)

func (k DedupKind) String() string {
	switch k {
	case DedupStdSet:
		return "dedup=stdset"
	case DedupFlatSet:
		return "dedup=flatset"
	case DedupArray:
		return "dedup=array"
	case DedupFisherYates:
		return "dedup=fy"
	}
	return fmt.Sprintf("dedup=?%d", uint8(k))
}

// BuildKind selects whether sampling and MFG construction are fused.
type BuildKind uint8

const (
	BuildTwoPhase BuildKind = iota // sample globals into a buffer, then map
	BuildFused                     // map each sampled neighbor immediately
	numBuildKinds
)

func (k BuildKind) String() string {
	if k == BuildFused {
		return "build=fused"
	}
	return "build=twophase"
}

// ReuseKind selects the buffer-reuse policy across mini-batches.
type ReuseKind uint8

const (
	ReuseFresh      ReuseKind = iota // allocate all working structures per batch
	ReusePooledMaps                  // reuse ID map and dedup structures
	ReusePooledAll                   // additionally reuse edge and scratch buffers
	numReuseKinds
)

func (k ReuseKind) String() string {
	switch k {
	case ReuseFresh:
		return "reuse=fresh"
	case ReusePooledMaps:
		return "reuse=maps"
	case ReusePooledAll:
		return "reuse=all"
	}
	return fmt.Sprintf("reuse=?%d", uint8(k))
}

// Config is one point in the sampler design space.
type Config struct {
	IDMap IDMapKind
	Dedup DedupKind
	Build BuildKind
	Reuse ReuseKind
}

func (c Config) String() string {
	return fmt.Sprintf("%v,%v,%v,%v", c.IDMap, c.Dedup, c.Build, c.Reuse)
}

// FastConfig is SALIENT's tuned sampler: the flat swiss-table ID map
// (paper: ~2× over chained hashing), array-scan dedup (a further ~17%,
// winning on cache locality despite linear search), fused construction and
// full buffer reuse.
func FastConfig() Config {
	return Config{IDMap: IDMapFlat, Dedup: DedupArray, Build: BuildFused, Reuse: ReusePooledAll}
}

// BaselineConfig models the PyG NeighborSampler implementation: STL-style
// chained hash map and hash set, two-phase construction, fresh allocations.
func BaselineConfig() Config {
	return Config{IDMap: IDMapStd, Dedup: DedupStdSet, Build: BuildTwoPhase, Reuse: ReuseFresh}
}

// Enumerate returns all 96 design-space configurations in deterministic
// order (the Figure 2 sweep).
func Enumerate() []Config {
	out := make([]Config, 0, int(numIDMapKinds)*int(numDedupKinds)*int(numBuildKinds)*int(numReuseKinds))
	for im := IDMapKind(0); im < numIDMapKinds; im++ {
		for dd := DedupKind(0); dd < numDedupKinds; dd++ {
			for bd := BuildKind(0); bd < numBuildKinds; bd++ {
				for ru := ReuseKind(0); ru < numReuseKinds; ru++ {
					out = append(out, Config{IDMap: im, Dedup: dd, Build: bd, Reuse: ru})
				}
			}
		}
	}
	return out
}
