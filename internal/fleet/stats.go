package fleet

import (
	"salient/internal/embcache"
	"salient/internal/event"
	"salient/internal/serve"
)

// Stats is the fleet-aggregate view: replica counters summed, the fleet's
// own admission/latency accounting, the shared graph's version, and the
// raw per-replica snapshots for drill-down. Request counters are exact
// sums of PerReplica (the aggregation test pins that). The transfer bill
// is a sum only when every replica has its own feature cache; without
// one, each replica reports the shared base store's counters, and the
// fleet reads them once. Latency is measured at the fleet boundary —
// submit to answer through routing, admission and the result memo — so
// it is the latency a client of the fleet observes, not a merge of
// replica-local distributions.
type Stats struct {
	Replicas int

	// Sums over PerReplica.
	Submitted     int64
	Rejected      int64
	Served        int64
	Batches       int64
	DeadlineSheds int64

	// Fleet-boundary latency (includes result-memo hits, excludes shed
	// requests — they have no answer to time).
	Latency event.Summary

	// Router admission refusals by reason (requests that never reached a
	// replica, except ShedCapacities which attributes replica
	// saturations).
	ShedDeadlines  int64
	ShedPriorities int64
	ShedCapacities int64

	// Routed counts successfully answered requests per replica — the
	// affinity balance view.
	Routed []int64

	// MaxVersion is the shared graph's latest version (0 for a static
	// fleet).
	MaxVersion uint64

	// Result is the result memo's traffic (zero when disabled).
	Result embcache.Stats

	// Cache sums over replicas: device feature-cache and historical
	// embedding-cache traffic, and the transfer bill (read once from the
	// shared base store when the replicas have no feature cache).
	CacheLookups     int64
	CacheHits        int64
	EmbLookups       int64
	EmbHits          int64
	BytesTransferred int64
	BytesSaved       int64

	// PerReplica holds each replica's own snapshot, index-aligned with
	// Routed.
	PerReplica []serve.Stats
}

// TotalSheds sums the router's admission refusals.
func (s Stats) TotalSheds() int64 {
	return s.ShedDeadlines + s.ShedPriorities + s.ShedCapacities
}

// CombinedCacheHitRate is the fraction of all cache consultations
// (feature rows + historical embeddings, fleet-wide) that hit — the
// single number the affinity-vs-random comparison turns on: hash routing
// concentrates each key slice's traffic on one replica's caches, random
// routing dilutes it N ways.
func (s Stats) CombinedCacheHitRate() float64 {
	lookups := s.CacheLookups + s.EmbLookups
	if lookups == 0 {
		return 0
	}
	return float64(s.CacheHits+s.EmbHits) / float64(lookups)
}

// Stats snapshots the fleet: every replica's stats (summed and kept), the
// router's own accounting, and the graph version.
func (f *Fleet) Stats() Stats {
	s := Stats{Replicas: len(f.reps), MaxVersion: f.version()}
	for _, rep := range f.reps {
		rs := rep.srv.Stats()
		s.PerReplica = append(s.PerReplica, rs)
		s.Submitted += rs.Submitted
		s.Rejected += rs.Rejected
		s.Served += rs.Served
		s.Batches += rs.Batches
		s.DeadlineSheds += rs.DeadlineSheds
		s.CacheLookups += rs.CacheLookups
		s.CacheHits += rs.CacheHits
		s.EmbLookups += rs.EmbLookups
		s.EmbHits += rs.EmbHits
		s.BytesTransferred += rs.BytesTransferred
		s.BytesSaved += rs.BytesSaved
	}
	if f.opts.Serve.CacheRows == 0 {
		bs := f.base.Stats()
		s.BytesTransferred, s.BytesSaved = bs.BytesMoved, bs.BytesSaved
	}
	if f.results != nil {
		s.Result = f.results.Stats()
	}
	f.statsMu.Lock()
	s.Latency = f.latency.Summarize()
	s.ShedDeadlines = f.sheds[ShedDeadline]
	s.ShedPriorities = f.sheds[ShedPriority]
	s.ShedCapacities = f.sheds[ShedCapacity]
	s.Routed = append([]int64(nil), f.routed...)
	f.statsMu.Unlock()
	return s
}
