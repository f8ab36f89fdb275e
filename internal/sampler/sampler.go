package sampler

import (
	"fmt"

	"salient/internal/graph"
	"salient/internal/mfg"
	"salient/internal/rng"
)

// SeedError reports an invalid seed set: a seed node out of graph range or a
// duplicate within the batch. SampleInto returns it (so batch-preparation
// executors can surface it through Batch.Err instead of crashing a worker
// goroutine); Sample panics with it.
type SeedError struct {
	Seed  int32 // offending global node ID
	Index int   // position within the seed slice
	N     int32 // graph node count
	Dup   bool  // true: duplicate seed; false: out of range
}

func (e *SeedError) Error() string {
	if e.Dup {
		return fmt.Sprintf("sampler: duplicate seed %d (position %d)", e.Seed, e.Index)
	}
	return fmt.Sprintf("sampler: seed %d (position %d) out of range [0,%d)", e.Seed, e.Index, e.N)
}

// Sampler draws multi-hop sampled neighborhoods (MFGs) from a graph.
//
// A Sampler is not safe for concurrent use; SALIENT's shared-memory batch
// preparation gives each worker goroutine its own Sampler (paper §4.2),
// which is also what makes the pooled-reuse configurations safe.
//
// SampleInto is the one sampling loop: it writes into an MFG the caller owns
// (the prep executor samples straight into recycled batch arenas this way)
// and always pools the sampler's internal scratch. Sample wraps it for the
// design sweep, choosing fresh or pooled buffers per the Reuse axis; with
// Reuse == ReusePooledAll the MFG it returns aliases sampler state and is
// invalidated by the next Sample call, mirroring SALIENT's recycled batch
// slots.
type Sampler struct {
	// G is the topology sampled against: a static CSR or an immutable
	// graph.Snapshot. Swap it between batches with Retarget, never directly.
	G       graph.Topology
	Fanouts []int // Fanouts[0] feeds GNN layer 1 (the outermost hop)

	cfg    Config
	mapper localMapper
	picker neighborPicker

	pooled   mfg.MFG // Sample's output under ReusePooledAll
	phaseBuf []int32 // two-phase sampled-globals buffer
	phaseCnt []int32 // two-phase per-destination counts

	// SampleInto hot-loop state. The emit closures are bound once at
	// construction and read/write these fields, so the per-destination inner
	// loops create no closures and allocate nothing in steady state.
	cur struct {
		nodeIDs []int32 // growing local->global table of the in-progress MFG
		src     []int32 // growing source-local edge list of the current block
		buf     []int32 // two-phase sampled-globals scratch
	}
	emitMap func(int32) // fused build: map + record one sampled neighbor
	emitBuf func(int32) // two-phase build: buffer one sampled global ID

	// truncate, when set, is consulted by SampleInto once per level-1
	// frontier destination (the hop that fills Blocks[0]), in destination
	// order: returning true skips neighbor expansion below that node,
	// leaving it an empty adjacency range. See SetTruncate.
	truncate func(int32) bool
}

// New returns a sampler over topology g (a *graph.CSR or a pinned
// *graph.Snapshot) with the given per-layer fanouts and design
// configuration.
func New(g graph.Topology, fanouts []int, cfg Config) *Sampler {
	if len(fanouts) == 0 {
		panic("sampler: empty fanouts") //lint:allow panicdiscipline constructor contract: empty fanouts is a programmer error caught at wiring time
	}
	for _, f := range fanouts {
		if f < 1 {
			panic(fmt.Sprintf("sampler: fanout %d < 1", f)) //lint:allow panicdiscipline constructor contract: non-positive fanouts are a programmer error caught at wiring time
		}
	}
	s := &Sampler{
		G:       g,
		Fanouts: append([]int(nil), fanouts...),
		cfg:     cfg,
	}
	s.picker = newPicker(cfg.Dedup, cfg.Reuse)
	s.mapper = s.newMapper()
	s.emitMap = func(g int32) {
		l := s.mapper.GetOrAssign(g)
		if int(l) == len(s.cur.nodeIDs) {
			s.cur.nodeIDs = append(s.cur.nodeIDs, g)
		}
		s.cur.src = append(s.cur.src, l)
	}
	s.emitBuf = func(g int32) { s.cur.buf = append(s.cur.buf, g) }
	return s
}

// Config returns the design-space configuration of this sampler.
func (s *Sampler) Config() Config { return s.cfg }

// SetTruncate installs (or, with nil, removes) the frontier truncation
// predicate — the embedding-reuse hook. SampleInto consults it exactly once
// per destination of the LAST sampling hop (the one that fills Blocks[0],
// whose destinations are the layer-1 frontier), in destination order; a
// true return skips sampling below that node, so its hop-2 neighborhood is
// never drawn, mapped, or gathered. The predicate observes the same
// destination sequence the block records, which lets callers map the i-th
// consultation of a request straight to frontier position i.
//
// A nil predicate — or one that always returns false — leaves the RNG
// consumption and output bit-identical to an un-hooked sampler: the
// predicate runs before any randomness for that destination is drawn.
// Sample draws through SampleInto, so it honours the hook too.
func (s *Sampler) SetTruncate(f func(int32) bool) { s.truncate = f }

// Retarget points the sampler at a new topology — how long-lived samplers
// (the prep executors' per-worker samplers, the serving workers') follow a
// dynamic graph across snapshots without losing their warm scratch buffers.
// The direct ID map is the only piece of state sized by the graph; it is
// regrown only when the node count expands past its table. Retargeting to
// the topology already in place is a no-op, and calling it mid-Sample is a
// caller error (samplers are single-goroutine).
func (s *Sampler) Retarget(g graph.Topology) {
	if g == s.G {
		return
	}
	s.G = g
	if d, ok := s.mapper.(*directMapper); ok && g.NumNodes() > d.n {
		s.mapper = newDirectMapper(g.NumNodes())
	}
}

func (s *Sampler) newMapper() localMapper {
	switch s.cfg.IDMap {
	case IDMapStd:
		return &stdMapper{}
	case IDMapFlat:
		return &flatMapper{}
	case IDMapFlatPre:
		return &flatMapper{presize: true}
	case IDMapDirect:
		return newDirectMapper(s.G.NumNodes())
	}
	panic("sampler: unknown idmap kind") //lint:allow panicdiscipline config enum exhaustiveness: Config.Validate rejects unknown kinds upstream
}

// ExpectedNodes bounds the expanded-neighborhood size of one batch:
// batch × Π(fanout+1), capped at the graph size n. Samplers pre-size their
// ID maps with it and batch executors their staging buffers.
func ExpectedNodes(batch int, fanouts []int, n int) int {
	est := batch
	for _, f := range fanouts {
		if est >= n {
			break
		}
		est *= f + 1
	}
	return min(est, n)
}

// Sample draws the MFG for the given seed nodes through SampleInto, applying
// the configured Reuse policy to the buffers it passes in: ReuseFresh
// starts from a new ID map, ReuseFresh and ReusePooledMaps from a fresh
// output and empty phase scratch, and ReusePooledAll from the sampler's own
// pooled output (invalidated by the next call). Seeds must be distinct and
// in range: violating either is a programming error and panics with the
// *SeedError SampleInto returns (callers that take seeds from untrusted
// input call SampleInto directly). Randomness comes from r, so identical
// (seed set, RNG state) pairs reproduce identical MFGs.
func (s *Sampler) Sample(r *rng.Rand, seeds []int32) *mfg.MFG {
	out := &s.pooled
	if s.cfg.Reuse != ReusePooledAll {
		out = new(mfg.MFG)
		s.phaseBuf, s.phaseCnt = nil, nil
	}
	if s.cfg.Reuse == ReuseFresh {
		s.mapper = s.newMapper()
	}
	if err := s.SampleInto(r, seeds, out); err != nil {
		panic(err) //lint:allow panicdiscipline documented Sample contract: seeds must be in-range and unique; SampleInto returns the same *SeedError
	}
	return out
}

// SampleInto draws the MFG for the given seed nodes into out, reusing out's
// buffers (Blocks, DstPtr/Src, NodeIDs) and growing them only when this
// batch's neighborhood exceeds every previous occupant's. out and everything
// it references belong to the caller, typically one slot of a recycled
// batch arena (internal/prep), and stay valid until the caller reuses them.
//
// Seed validation failures (out-of-range or duplicate seeds) come back as a
// *SeedError — out-of-range before any sampling state is touched, duplicates
// during the seed-prefix insertion — so executors can surface them through
// Batch.Err. On error out's contents are unspecified but its buffers remain
// reusable.
//
// SampleInto itself always pools the sampler's internal scratch (ID map,
// dedup structures, phase buffers); the Reuse axis is applied by Sample
// through the buffers it passes in.
//
//salient:noalloc
func (s *Sampler) SampleInto(r *rng.Rand, seeds []int32, out *mfg.MFG) error {
	L := len(s.Fanouts)
	expected := ExpectedNodes(len(seeds), s.Fanouts, int(s.G.NumNodes()))

	for i, v := range seeds {
		if v < 0 || v >= s.G.NumNodes() {
			return &SeedError{Seed: v, Index: i, N: s.G.NumNodes()}
		}
	}

	s.mapper.Reset(expected)

	nodeIDs := out.NodeIDs[:0]
	if cap(nodeIDs) < expected {
		nodeIDs = make([]int32, 0, expected)
	}
	for i, v := range seeds {
		l := s.mapper.GetOrAssign(v)
		if int(l) != len(nodeIDs) {
			return &SeedError{Seed: v, Index: i, N: s.G.NumNodes(), Dup: true}
		}
		nodeIDs = append(nodeIDs, v)
	}

	if cap(out.Blocks) < L {
		out.Blocks = make([]mfg.Block, L)
	}
	out.Blocks = out.Blocks[:L]

	s.cur.nodeIDs = nodeIDs
	frontier := int32(len(seeds))

	for hop := 0; hop < L; hop++ {
		blockIdx := L - 1 - hop       // innermost hop fills the last block
		fanout := s.Fanouts[blockIdx] // so hop 0 uses Fanouts[L-1]
		numDst := frontier
		blk := &out.Blocks[blockIdx]

		// The truncation hook applies only to the hop that fills Blocks[0]
		// (its destinations are the layer-1 frontier); a local nil predicate
		// keeps the other hops' inner loops branch-free.
		trunc := s.truncate
		if blockIdx != 0 {
			trunc = nil
		}

		dstPtr := blk.DstPtr
		if cap(dstPtr) < int(numDst)+1 {
			dstPtr = make([]int32, int(numDst)+1)
		}
		dstPtr = dstPtr[:int(numDst)+1]
		s.cur.src = blk.Src[:0]

		if s.cfg.Build == BuildFused {
			for v := int32(0); v < numDst; v++ {
				dstPtr[v] = int32(len(s.cur.src))
				if trunc != nil && trunc(s.cur.nodeIDs[v]) {
					continue // cached embedding: no expansion below this node
				}
				ns := s.G.Neighbors(s.cur.nodeIDs[v])
				s.picker.Pick(r, ns, fanout, s.emitMap)
			}
			dstPtr[numDst] = int32(len(s.cur.src))
		} else {
			// Phase 1: sample global IDs into a flat buffer.
			s.cur.buf = s.phaseBuf[:0]
			cnt := s.grabCnt(int(numDst))
			for v := int32(0); v < numDst; v++ {
				before := len(s.cur.buf)
				if trunc == nil || !trunc(s.cur.nodeIDs[v]) {
					ns := s.G.Neighbors(s.cur.nodeIDs[v])
					s.picker.Pick(r, ns, fanout, s.emitBuf)
				}
				cnt[v] = int32(len(s.cur.buf) - before)
			}
			// Phase 2: map globals to locals and build the block.
			pos := 0
			for v := int32(0); v < numDst; v++ {
				dstPtr[v] = int32(len(s.cur.src))
				for e := int32(0); e < cnt[v]; e++ {
					g := s.cur.buf[pos]
					pos++
					l := s.mapper.GetOrAssign(g)
					if int(l) == len(s.cur.nodeIDs) {
						s.cur.nodeIDs = append(s.cur.nodeIDs, g)
					}
					s.cur.src = append(s.cur.src, l)
				}
			}
			dstPtr[numDst] = int32(len(s.cur.src))
			s.phaseBuf = s.cur.buf
		}

		frontier = s.mapper.Len()
		*blk = mfg.Block{
			DstPtr: dstPtr,
			Src:    s.cur.src,
			NumDst: numDst,
			NumSrc: frontier,
		}
	}

	out.NodeIDs = s.cur.nodeIDs
	out.Batch = int32(len(seeds))
	s.cur.nodeIDs, s.cur.src, s.cur.buf = nil, nil, nil
	return nil
}

// grabCnt returns the pooled per-destination count scratch of the two-phase
// build.
//
//salient:noalloc
func (s *Sampler) grabCnt(n int) []int32 {
	if cap(s.phaseCnt) < n {
		s.phaseCnt = make([]int32, n)
	}
	s.phaseCnt = s.phaseCnt[:n]
	return s.phaseCnt
}
