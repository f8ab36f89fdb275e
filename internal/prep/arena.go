package prep

import (
	"salient/internal/mfg"
	"salient/internal/slicing"
)

// arena is the recycled memory footprint of one in-flight batch: the MFG's
// index buffers (blocks, DstPtr/Src, NodeIDs) and the pinned staging buffer
// the features and labels are gathered into. A worker carves a whole batch
// out of one arena — the sampler appends into the arena's MFG (SampleInto),
// the store gathers into its pinned buffer — and the consumer's
// Batch.Release returns the arena to the executor's pool, so steady-state
// batch preparation performs (near-)zero heap allocations: after warm-up,
// every buffer has grown to the largest neighborhood it has ever staged and
// is simply overwritten.
//
// The arena pool is also the executor's in-flight bound: a worker must hold
// an arena before it may claim a batch index, and because the acquisition
// precedes the claim from the increasing index counter, the arena-holding
// worker always claims the lowest unclaimed index — ordered delivery can
// never starve the emission cursor's batch as long as the consumer holds
// fewer than InFlight unreleased batches. The PyG executor stages into the
// same pool's pinned buffers and leaves the arena MFGs unused.
type arena struct {
	mfg mfg.MFG
	buf *slicing.Pinned
	// fused is the staging target of the fused gather+aggregate pipeline
	// (Options.Fused): its tensors grow on first use and recycle with the
	// arena, so the fused path is as allocation-free as the staged one.
	fused slicing.Fused
}

// arenaPool is a fixed-size recycling pool of batch arenas.
type arenaPool struct {
	free chan *arena
}

// newArenaPool creates a pool of n arenas whose pinned buffers are
// pre-allocated for up to maxRows gathered rows and maxBatch labels.
func newArenaPool(n, maxRows, featDim, maxBatch int) *arenaPool {
	p := &arenaPool{free: make(chan *arena, n)}
	for i := 0; i < n; i++ {
		p.free <- &arena{buf: slicing.NewPinned(maxRows, featDim, maxBatch)}
	}
	return p
}

// get blocks until an arena is free.
func (p *arenaPool) get() *arena { return <-p.free }

// put returns an arena to the pool. Returning more arenas than the pool size
// panics, which catches double-release bugs early.
func (p *arenaPool) put(a *arena) {
	select {
	case p.free <- a:
	default:
		panic("prep: arena pool overflow (double Release?)") //lint:allow panicdiscipline corruption guard: pool overflow means a double Release broke the in-flight credit
	}
}

// idle reports how many arenas are currently free — used by leak tests to
// assert a drained epoch returned every arena.
func (p *arenaPool) idle() int { return len(p.free) }

// size reports the pool's capacity (Options.InFlight).
func (p *arenaPool) size() int { return cap(p.free) }
