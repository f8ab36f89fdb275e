package embcache

// Reuser is the per-worker adapter between the sampler's frontier
// truncation hook and the forward pass: during sampling its Truncate
// method answers "was this frontier node's layer-1 embedding computed
// within the staleness window of the pinned snapshot version?" — a
// version in [now−K, now], saturating at 0; K = 0 accepts no version, so
// nothing is reused — copying hits into a private scratch
// buffer; after the truncated forward pass the worker reads the hits back
// (request index, frontier position, embedding row) and overwrites the
// corresponding layer-1 output rows.
//
// One Reuser belongs to one worker — no method is safe for concurrent use,
// matching the sampler/worker ownership model. The underlying Cache is
// shared and concurrent-safe.
type Reuser struct {
	c      *Cache[float32]
	window uint64
	oldest uint64 // accepted versions of the current micro-batch
	newest uint64
	req    int32
	call   int32

	scratch []float32 // hit embeddings, d-strided
	reqs    []int32   // hit -> request index within the micro-batch
	locs    []int32   // hit -> frontier call index within that request
}

// NewReuser builds a reuser over the shared cache with staleness window K
// snapshot versions.
func NewReuser(c *Cache[float32], window uint64) *Reuser {
	return &Reuser{c: c, window: window}
}

// Begin starts a micro-batch pinned at the given snapshot version,
// clearing the previous batch's hits (buffers are retained — steady state
// allocates nothing).
func (r *Reuser) Begin(version uint64) {
	r.oldest, r.newest = version-min(version, r.window), version
	if r.window == 0 {
		r.oldest = version + 1 // the empty range: lookups count, never hit
	}
	r.scratch = r.scratch[:0]
	r.reqs = r.reqs[:0]
	r.locs = r.locs[:0]
	r.req, r.call = 0, 0
}

// BeginRequest starts request i of the micro-batch: subsequent Truncate
// calls are attributed to it, with call indices restarting at 0. The
// sampler consults Truncate once per level-1 frontier dst in dst order, so
// the call index IS the node's position within this request's frontier.
func (r *Reuser) BeginRequest(i int32) {
	r.req = i
	r.call = 0
}

// Truncate reports whether sampling below node can stop because a usable
// cached embedding exists. A hit copies the embedding into the scratch
// buffer and records (request, call index) so the worker can map it back
// to a row of the merged layer-1 output. Hot path: one cache lookup, no
// allocation in steady state (buffers grow-once).
//
//salient:noalloc
func (r *Reuser) Truncate(node int32) bool {
	loc := r.call
	r.call++
	d := r.c.Dim()
	if d == 0 {
		return false // nothing cached yet anywhere
	}
	need := len(r.scratch) + d
	if cap(r.scratch) < need {
		grown := make([]float32, len(r.scratch), 2*need)
		copy(grown, r.scratch)
		r.scratch = grown
	}
	row := r.scratch[len(r.scratch):need]
	if !r.c.Lookup(node, r.oldest, r.newest, row) {
		return false
	}
	r.scratch = r.scratch[:need]
	r.reqs = append(r.reqs, r.req)
	r.locs = append(r.locs, loc)
	return true
}

// Hits returns how many frontier entries were truncated this micro-batch.
func (r *Reuser) Hits() int { return len(r.reqs) }

// Hit returns hit k: the request it belongs to, the node's call index
// within that request's frontier, and the cached embedding row.
func (r *Reuser) Hit(k int) (req, loc int32, emb []float32) {
	d := r.c.Dim()
	return r.reqs[k], r.locs[k], r.scratch[k*d : (k+1)*d]
}
