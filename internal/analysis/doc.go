// Package analysis implements salientlint, a suite of golang.org/x/tools
// go/analysis analyzers that machine-enforce the repository's data-path
// invariants — the contracts PRs 2–5 established by convention and oracle
// tests:
//
//   - topologyseam: all adjacency outside internal/graph is read through the
//     graph.Topology seam; the CSR representation (Ptr/Adj) is private to the
//     graph package.
//   - arenalifecycle: every prep.Batch acquired from a Stream is Release()d
//     on all paths, and its arena-backed fields are not touched after
//     Release.
//   - noalloc: functions annotated `//salient:noalloc` contain no
//     steady-state-allocating constructs; the annotation cross-checks the
//     AllocsPerRun CI gate.
//   - determinism: the sampler/prep/train/ddp/nn packages draw no global
//     math/rand state, derive no seeds from wall-clock time, and feed no
//     map-iteration order into results.
//   - snapshotpin: epoch/step loop bodies in train/ddp/prep never re-pin a
//     graph.Viewer or *graph.Dynamic; views are pinned once and passed down.
//   - panicdiscipline: library code panics only where a `//lint:allow`
//     directive documents the panic as a deliberate contract.
//   - directives: the two comment directives themselves are well-formed.
//
// Two comment directives configure the suite:
//
//	//salient:noalloc
//
// placed in a function's doc comment opts that function into the noalloc
// analyzer's steady-state-allocation checks.
//
//	//lint:allow <analyzer> <reason>
//
// suppresses the named analyzer's diagnostics — on the same line as the
// diagnostic, on the line immediately above it, or (when it appears in a
// function's doc comment) for the whole function. The reason is mandatory:
// an escape hatch without a rationale is itself a diagnostic.
//
// The suite runs as `go run ./cmd/salientlint ./...` locally and in CI's
// lint job; each analyzer carries analysistest-style golden tests under
// testdata/src.
package analysis
