package store

import (
	"fmt"
	"sync"

	"salient/internal/cache"
	"salient/internal/dataset"
	"salient/internal/half"
	"salient/internal/partition"
	"salient/internal/slicing"
	"salient/internal/transport"
)

// RemoteOptions configures NewRemote.
type RemoteOptions struct {
	// Precision is the storage precision of the home shard AND the wire:
	// remote rows cross the network at this precision (fp16/int8 rows stay
	// narrow on the wire). Zero value selects fp16, the seed layout. Every
	// peer's handshake must advertise the same precision.
	Precision half.Precision
	// CacheRows bounds the local mirror of remote rows, filled once at
	// construction with the highest-degree remote rows (cache.TopK).
	// Mirrored rows are fetched over the transport, so warming traffic is
	// real accounted wire traffic. Zero disables the mirror.
	CacheRows int
}

// Remote is the feature store of one host in the distributed data plane: it
// physically holds only the rows of its home partition (plus an optional
// degree-warmed mirror of hot remote rows) and gathers every other row from
// the partition's owner over a transport.Conn, one batched FetchRows per
// remote part per gather.
//
// Batch contents are bit-identical to any local store at the same precision:
// the wire moves rows at storage precision and the peers encode from the
// same fp16 master values, so distribution changes accounting and traffic,
// never what the model sees.
//
// Stats semantics: RowsRemote counts rows fetched over the transport and
// BytesRemote counts the ACTUAL framed wire bytes those fetches moved in
// both directions (headers, IDs, labels, and scales included — not the
// rowBytes approximation Sharded charges), warming traffic included. Mirror
// hits are charged as RowsSaved/BytesSaved, like a cache.
type Remote struct {
	dim   int
	prec  half.Precision
	n     int
	parts int
	home  int32
	part  []int32 // node -> owning part
	local []int32 // node -> row within its owner's shard order

	rows   half.Matrix // home shard rows, placement order
	labels []int32     // home labels, indexed by local row

	// mirror holds the degree-warmed remote rows; built once in NewRemote
	// and never changed, so gathers read it without synchronization. Nil
	// when CacheRows is zero.
	mirror *mirrorSet

	peers []transport.Conn // by part; nil at home

	// scratch recycles Gather's fetch state across calls (*gatherScratch);
	// gathers run concurrently, so each takes its own.
	scratch sync.Pool

	mu    sync.Mutex
	stats Stats
}

// gatherScratch is one Gather's reusable fetch state.
type gatherScratch struct {
	reqs, pos [][]int32 // by part: ids to fetch, and their batch positions
	rows      transport.Rows
}

// mirrorSet is the local mirror: remote node -> mirror row, plus the row
// storage and labels.
type mirrorSet struct {
	idx    map[int32]int32
	rows   half.Matrix
	labels []int32
}

// NewRemote builds part home's store over ds: home rows are laid out
// locally from the dataset's fp16 master values (exactly as Sharded lays
// out one shard), and peers[p] must be a live connection to part p's host
// for every p != home. Each peer's handshake is validated up front — same
// precision (transport.CheckHello) and a dataset-compatible shape
// (ValidateShape, the one dim/row rule) — so a cluster wired over the wrong
// dataset fails at construction, not mid-epoch.
func NewRemote(ds *dataset.Dataset, a *partition.Assignment, home int32, peers []transport.Conn, opts RemoteOptions) (*Remote, error) {
	n := int(ds.G.N)
	if len(a.Part) != n {
		return nil, fmt.Errorf("store: assignment covers %d nodes, dataset has %d", len(a.Part), n)
	}
	if home < 0 || int(home) >= a.Parts {
		return nil, fmt.Errorf("store: home part %d of %d", home, a.Parts)
	}
	if len(peers) != a.Parts {
		return nil, fmt.Errorf("store: %d peer conns for %d parts", len(peers), a.Parts)
	}
	prec := opts.Precision
	if !prec.Valid() {
		return nil, fmt.Errorf("store: invalid precision %d", prec)
	}
	s := &Remote{
		dim:   ds.FeatDim,
		prec:  prec,
		n:     n,
		parts: a.Parts,
		home:  home,
		part:  append([]int32(nil), a.Part...),
		local: make([]int32, n),
		peers: peers,
	}
	counts := make([]int32, a.Parts)
	for v, p := range s.part {
		if p < 0 || int(p) >= a.Parts {
			return nil, fmt.Errorf("store: node %d assigned to part %d of %d", v, p, a.Parts)
		}
		s.local[v] = counts[p]
		counts[p]++
	}
	for p := int32(0); int(p) < a.Parts; p++ {
		if p == home {
			continue
		}
		c := peers[p]
		if c == nil {
			return nil, fmt.Errorf("store: no connection to part %d", p)
		}
		h := c.Hello()
		want := transport.Hello{Proto: transport.ProtoVersion, Precision: prec, GraphVersion: h.GraphVersion}
		if err := transport.CheckHello(h, want); err != nil {
			return nil, fmt.Errorf("store: part %d: %w", p, err)
		}
		if err := ValidateShape(h.Dim, h.NumNodes, ds.FeatDim, n, false); err != nil {
			return nil, fmt.Errorf("store: part %d serves incompatible shape: %w", p, err)
		}
	}

	// Lay out the home shard: rows of home-assigned nodes in placement
	// order, encoded from the fp16 master exactly as NewSharded encodes
	// a shard — so every store of one dataset derives from identical inputs.
	s.rows.Ensure(int(counts[home]), s.dim, prec)
	s.labels = make([]int32, counts[home])
	scratch := make([]float32, s.dim)
	for v := 0; v < n; v++ {
		if s.part[v] != home {
			continue
		}
		lo := int(s.local[v])
		s.rows.SetFromFP16(lo, ds.FeatHalf[v*s.dim:(v+1)*s.dim], scratch)
		s.labels[lo] = ds.Labels[v]
	}

	if opts.CacheRows > 0 {
		if err := s.warmMirror(ds, opts.CacheRows); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// warmMirror fetches the hottest remote rows — the top budget by degree,
// ties to the lower ID (cache.TopK) — into the local mirror, one FetchRows
// per owning part. The fetches are real wire traffic and are charged to
// RowsRemote/BytesRemote.
func (s *Remote) warmMirror(ds *dataset.Dataset, budget int) error {
	remote := make([]int32, 0, s.n)
	deg := make([]int64, 0, s.n)
	for v := int32(0); int(v) < s.n; v++ {
		if s.part[v] != s.home {
			remote = append(remote, v)
			deg = append(deg, int64(ds.G.Degree(v)))
		}
	}
	nodes := cache.TopK(remote, deg, budget)
	m := &mirrorSet{
		idx:    make(map[int32]int32, len(nodes)),
		labels: make([]int32, len(nodes)),
	}
	m.rows.Ensure(len(nodes), s.dim, s.prec)
	byPart := make([][]int32, s.parts)
	for _, v := range nodes {
		byPart[s.part[v]] = append(byPart[s.part[v]], v)
	}
	var rbuf transport.Rows
	next := int32(0)
	for p, ids := range byPart {
		if len(ids) == 0 {
			continue
		}
		wire, err := s.peers[p].FetchRows(ids, &rbuf)
		if err != nil {
			return fmt.Errorf("store: warming mirror from part %d: %w", p, err)
		}
		for j, v := range ids {
			m.rows.CopyRow(int(next), &rbuf.Matrix, j)
			m.labels[next] = rbuf.Labels[j]
			m.idx[v] = next
			next++
		}
		s.mu.Lock()
		s.stats.RowsRemote += int64(len(ids))
		s.stats.BytesRemote += wire
		s.mu.Unlock()
	}
	s.mirror = m
	return nil
}

// Dim returns the feature dimensionality.
func (s *Remote) Dim() int { return s.dim }

// Precision returns the storage precision rows are held (and wired) at.
func (s *Remote) Precision() half.Precision { return s.prec }

// NumNodes returns the number of rows addressable through this store — the
// whole dataset's, though only the home partition's live here.
func (s *Remote) NumNodes() int { return s.n }

// Home returns the partition whose rows this store holds locally.
func (s *Remote) Home() int32 { return s.home }

// MirrorRows returns how many remote rows the mirror holds.
func (s *Remote) MirrorRows() int {
	if s.mirror == nil {
		return 0
	}
	return len(s.mirror.idx)
}

// Gather stages features for nodeIDs and labels for the seed prefix into
// dst. Home and mirrored rows are copied locally; everything else is
// fetched from its owner, one batched FetchRows per remote part. Typed
// transport errors surface unwrapped, so callers can distinguish a dead
// peer (transient, retried by the transport first) from a rejection.
func (s *Remote) Gather(dst *slicing.Pinned, nodeIDs []int32, batch int) error {
	if batch > len(nodeIDs) {
		return fmt.Errorf("store: batch %d > nodes %d", batch, len(nodeIDs))
	}
	if err := checkIDs(nodeIDs, s.n); err != nil {
		return err
	}
	dst.Ensure(len(nodeIDs), s.dim, batch, s.prec)

	mir := s.mirror
	var sc *gatherScratch // taken at the first row that must be fetched
	var lookups, hits int64
	for i, id := range nodeIDs {
		p := s.part[id]
		if p == s.home {
			dst.CopyRow(i, &s.rows, int(s.local[id]))
			if i < batch {
				dst.Labels[i] = s.labels[s.local[id]]
			}
			continue
		}
		lookups++
		if mir != nil {
			if m, ok := mir.idx[id]; ok {
				hits++
				dst.CopyRow(i, &mir.rows, int(m))
				if i < batch {
					dst.Labels[i] = mir.labels[m]
				}
				continue
			}
		}
		if sc == nil {
			sc = s.takeScratch()
		}
		sc.reqs[p] = append(sc.reqs[p], id)
		sc.pos[p] = append(sc.pos[p], int32(i))
	}

	var fetched, wire int64
	if sc != nil {
		defer s.scratch.Put(sc)
		for p, ids := range sc.reqs {
			if len(ids) == 0 {
				continue
			}
			nbytes, err := s.peers[p].FetchRows(ids, &sc.rows)
			if err != nil {
				return fmt.Errorf("store: remote gather from part %d: %w", p, err)
			}
			for j := range ids {
				i := int(sc.pos[p][j])
				dst.CopyRow(i, &sc.rows.Matrix, j)
				if i < batch {
					dst.Labels[i] = sc.rows.Labels[j]
				}
			}
			fetched += int64(len(ids))
			wire += nbytes
		}
	}

	rowBytes := s.prec.RowBytes(s.dim)
	s.mu.Lock()
	s.stats.Gathers++
	s.stats.Rows += int64(len(nodeIDs))
	s.stats.RowsMoved += int64(len(nodeIDs))
	s.stats.BytesMoved += int64(len(nodeIDs)) * rowBytes
	s.stats.CacheLookups += lookups
	s.stats.CacheHits += hits
	s.stats.RowsSaved += hits
	s.stats.BytesSaved += hits * rowBytes
	s.stats.RowsRemote += fetched
	s.stats.BytesRemote += wire
	s.mu.Unlock()
	return nil
}

// takeScratch returns an emptied fetch state from the pool, or a new one.
func (s *Remote) takeScratch() *gatherScratch {
	sc, _ := s.scratch.Get().(*gatherScratch)
	if sc == nil {
		return &gatherScratch{reqs: make([][]int32, s.parts), pos: make([][]int32, s.parts)}
	}
	for p := range sc.reqs {
		sc.reqs[p], sc.pos[p] = sc.reqs[p][:0], sc.pos[p][:0]
	}
	return sc
}

// Stats returns the accumulated transfer accounting (see the Remote doc for
// the wire-exact BytesRemote semantics).
func (s *Remote) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats clears the accounting (never the mirror or the home shard).
func (s *Remote) ResetStats() {
	s.mu.Lock()
	s.stats = Stats{}
	s.mu.Unlock()
}
