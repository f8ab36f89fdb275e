package dist

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"salient/internal/dataset"
	"salient/internal/graph"
	"salient/internal/half"
	"salient/internal/partition"
	"salient/internal/rng"
	"salient/internal/sampler"
	"salient/internal/slicing"
	"salient/internal/store"
	"salient/internal/train"
	"salient/internal/transport"
)

func distDS(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Load(dataset.Arxiv, 0.05)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return ds
}

// sampleLists draws deterministic MFG node lists the way the executors do,
// so gathers exercise realistic (seed-prefixed, duplicate-free) batches.
func sampleLists(t testing.TB, ds *dataset.Dataset, batches, batchSize int) ([][]int32, []int) {
	t.Helper()
	sm := sampler.New(ds.G, []int{10, 5}, sampler.FastConfig())
	lists := make([][]int32, 0, batches)
	seedCounts := make([]int, 0, batches)
	for b := 0; b < batches; b++ {
		lo := (b * batchSize) % len(ds.Train)
		hi := lo + batchSize
		if hi > len(ds.Train) {
			hi = len(ds.Train)
		}
		seeds := ds.Train[lo:hi]
		m := sm.Sample(rng.New(uint64(b)*0x9e3779b97f4a7c15+7), seeds).Clone()
		lists = append(lists, m.NodeIDs)
		seedCounts = append(seedCounts, len(seeds))
	}
	return lists, seedCounts
}

func sameStaged(t *testing.T, name string, got, want *slicing.Pinned, rows, dim, batch int, prec half.Precision) {
	t.Helper()
	switch prec {
	case half.FP32:
		for i := 0; i < rows*dim; i++ {
			if got.F[i] != want.F[i] {
				t.Fatalf("%s: fp32 scalar %d: %v vs %v", name, i, got.F[i], want.F[i])
			}
		}
	case half.Int8:
		for i := 0; i < rows*dim; i++ {
			if got.Q[i] != want.Q[i] {
				t.Fatalf("%s: int8 scalar %d: %v vs %v", name, i, got.Q[i], want.Q[i])
			}
		}
		for i := 0; i < rows; i++ {
			if got.Scales[i] != want.Scales[i] {
				t.Fatalf("%s: scale %d: %v vs %v", name, i, got.Scales[i], want.Scales[i])
			}
		}
	default:
		for i := 0; i < rows*dim; i++ {
			if got.H[i] != want.H[i] {
				t.Fatalf("%s: fp16 scalar %d: %#x vs %#x", name, i, got.H[i], want.H[i])
			}
		}
	}
	for i := 0; i < batch; i++ {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("%s: label %d: %d vs %d", name, i, got.Labels[i], want.Labels[i])
		}
	}
}

// TestRemoteMatchesFlatAllPrecisions: at every storage precision, a loopback
// cluster's Remote stores stage byte-identical batches to the flat
// single-host store — distribution changes accounting, never contents.
func TestRemoteMatchesFlatAllPrecisions(t *testing.T) {
	ds := distDS(t)
	lists, seeds := sampleLists(t, ds, 6, 64)
	for _, prec := range []half.Precision{half.FP16, half.FP32, half.Int8} {
		c, err := NewCluster(ds, ClusterOptions{Parts: 3, Precision: prec, CacheRows: 128})
		if err != nil {
			t.Fatal(err)
		}
		flat := store.NewFlatPrec(ds, prec)
		for r := 0; r < 3; r++ {
			rm := c.Remote(r)
			for i, ids := range lists {
				got := slicing.NewPinned(len(ids), ds.FeatDim, seeds[i])
				want := slicing.NewPinned(len(ids), ds.FeatDim, seeds[i])
				if err := rm.Gather(got, ids, seeds[i]); err != nil {
					t.Fatalf("%v part %d batch %d: %v", prec, r, i, err)
				}
				if err := flat.Gather(want, ids, seeds[i]); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%v part %d batch %d", prec, r, i)
				sameStaged(t, name, got, want, len(ids), ds.FeatDim, seeds[i], prec)
			}
			st := rm.Stats()
			if st.RowsRemote == 0 || st.BytesRemote == 0 {
				t.Fatalf("%v part %d: no remote traffic accounted: %+v", prec, r, st)
			}
			if st.CacheHits == 0 || st.RowsSaved == 0 {
				t.Fatalf("%v part %d: warmed mirror never hit: %+v", prec, r, st)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRemoteMirrorCutsWireTraffic: the degree-warmed mirror keeps hot rows
// off the network — with a warm mirror, strictly fewer wire bytes cross per
// gather than without (warming traffic excluded via ResetStats).
func TestRemoteMirrorCutsWireTraffic(t *testing.T) {
	ds := distDS(t)
	lists, seeds := sampleLists(t, ds, 6, 64)
	gatherBytes := func(cacheRows int) int64 {
		c, err := NewCluster(ds, ClusterOptions{Parts: 2, CacheRows: cacheRows})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rm := c.Remote(0)
		rm.ResetStats()
		for i, ids := range lists {
			buf := slicing.NewPinned(len(ids), ds.FeatDim, seeds[i])
			if err := rm.Gather(buf, ids, seeds[i]); err != nil {
				t.Fatal(err)
			}
		}
		return rm.Stats().BytesRemote
	}
	cold := gatherBytes(0)
	warm := gatherBytes(2048)
	if warm >= cold {
		t.Fatalf("warmed mirror moved %d wire bytes, cold store %d — cache saved nothing", warm, cold)
	}
}

// TestRemoteMirrorHoldsTopDegreeRows: each host's mirror holds exactly the
// CacheRows remote nodes a full stable sort by (degree desc, id asc)
// ranks first — the set the degree warm-up selected before it moved onto
// cache.TopK. Membership is read off the store's own accounting: a
// one-row gather of a remote node is a cache hit iff the node is mirrored.
func TestRemoteMirrorHoldsTopDegreeRows(t *testing.T) {
	ds := distDS(t)
	const cacheRows = 100
	c, err := NewCluster(ds, ClusterOptions{Parts: 2, CacheRows: cacheRows})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := slicing.NewPinned(1, ds.FeatDim, 0)
	for r := 0; r < 2; r++ {
		rm := c.Remote(r)
		var remote []int32
		for v := int32(0); v < ds.G.N; v++ {
			if c.Assignment.Part[v] != int32(r) {
				remote = append(remote, v)
			}
		}
		sort.SliceStable(remote, func(i, j int) bool {
			di, dj := ds.G.Degree(remote[i]), ds.G.Degree(remote[j])
			if di != dj {
				return di > dj
			}
			return remote[i] < remote[j]
		})
		want := make(map[int32]bool, cacheRows)
		for _, v := range remote[:cacheRows] {
			want[v] = true
		}
		for _, v := range remote {
			before := rm.Stats().CacheHits
			if err := rm.Gather(buf, []int32{v}, 0); err != nil {
				t.Fatal(err)
			}
			if hit := rm.Stats().CacheHits > before; hit != want[v] {
				t.Fatalf("host %d: node %d (degree %d) mirrored=%v, want %v", r, v, ds.G.Degree(v), hit, want[v])
			}
		}
		if rm.MirrorRows() != cacheRows {
			t.Fatalf("host %d: mirror holds %d rows, want %d", r, rm.MirrorRows(), cacheRows)
		}
	}
}

// TestRemoteWireBytesMatchSocketTCP is the byte-accounting acceptance
// gate: over a real TCP socket, the wire bytes store.Remote charges as
// BytesRemote equal the bytes that actually crossed the socket (counted at
// the connection, handshake excluded) — and equal what the same workload
// charges over loopback, making loopback stats an exact wire prediction.
// The same rows cross the wire at every precision, so the bytes order
// int8 < fp16 < fp32.
func TestRemoteWireBytesMatchSocketTCP(t *testing.T) {
	ds := distDS(t)
	lists, seeds := sampleLists(t, ds, 4, 64)
	a, err := partition.LDG(ds.G, 3)
	if err != nil {
		t.Fatal(err)
	}
	view := graph.Static(ds.G).View()
	wire := map[half.Precision]int64{}
	for _, prec := range []half.Precision{half.FP16, half.FP32, half.Int8} {
		h, err := NewHandler(ds, view, prec)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := transport.ListenAndServe("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		run := func(peers []transport.Conn) *store.Remote {
			t.Helper()
			rm, err := store.NewRemote(ds, a, 1, peers, store.RemoteOptions{Precision: prec, CacheRows: 64})
			if err != nil {
				t.Fatal(err)
			}
			for i, ids := range lists {
				buf := slicing.NewPinned(len(ids), ds.FeatDim, seeds[i])
				if err := rm.Gather(buf, ids, seeds[i]); err != nil {
					t.Fatal(err)
				}
			}
			return rm
		}

		tcpPeers := make([]transport.Conn, 3)
		loopPeers := make([]transport.Conn, 3)
		for p := range tcpPeers {
			if p == 1 {
				continue
			}
			conn, err := transport.DialTCP(srv.Addr(), transport.Options{})
			if err != nil {
				t.Fatal(err)
			}
			tcpPeers[p] = conn
			loopPeers[p] = transport.Loopback(h)
		}
		overTCP := run(tcpPeers)
		overLoop := run(loopPeers)

		var socket int64
		for p, conn := range tcpPeers {
			if conn == nil {
				continue
			}
			st := conn.Stats()
			if st.Retries != 0 {
				t.Fatalf("%v: clean localhost run retried %d times", prec, st.Retries)
			}
			socket += st.BytesSent + st.BytesRecv - transport.HelloFrameBytes()
			if err := conn.Close(); err != nil {
				t.Fatalf("close peer %d: %v", p, err)
			}
		}
		if got := overTCP.Stats().BytesRemote; got != socket {
			t.Fatalf("%v: Remote charged %d wire bytes, socket moved %d (sans handshake)", prec, got, socket)
		}
		if lb, tcp := overLoop.Stats().BytesRemote, overTCP.Stats().BytesRemote; lb != tcp {
			t.Fatalf("%v: loopback charged %d, TCP charged %d — frame arithmetic diverged", prec, lb, tcp)
		}
		wire[prec] = overTCP.Stats().BytesRemote
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !(wire[half.Int8] < wire[half.FP16] && wire[half.FP16] < wire[half.FP32]) {
		t.Fatalf("wire bytes not ordered int8 < fp16 < fp32: %d / %d / %d",
			wire[half.Int8], wire[half.FP16], wire[half.FP32])
	}
}

func distTrainCfg(replicas int) train.Config {
	return train.Config{
		Arch:      "SAGE",
		Hidden:    32,
		Layers:    2,
		Fanouts:   []int{10, 5},
		BatchSize: 64,
		LR:        5e-3,
		Workers:   2,
		Seed:      7,
		Replicas:  replicas,
	}
}

func bitEqualParams(t *testing.T, label string, a, b *train.Trainer) {
	t.Helper()
	ap, bp := a.Model.Params(), b.Model.Params()
	if len(ap) != len(bp) {
		t.Fatalf("%s: %d vs %d params", label, len(ap), len(bp))
	}
	for i := range ap {
		if d := ap[i].W.MaxAbsDiff(bp[i].W); d != 0 {
			t.Fatalf("%s: param %s differs by %v", label, ap[i].Name, d)
		}
	}
}

// TestDistributedTrainingBitIdenticalToSingleHost is the tentpole oracle:
// R replicas, each owning one partition and training through a store.Remote
// and a graph.Partitioned over loopback transport, finish bit-identical to
// the plain single-host data-parallel trainer — which is itself pinned
// bit-identical to the serial union-schedule oracle. Distribution moves
// bytes, never results.
func TestDistributedTrainingBitIdenticalToSingleHost(t *testing.T) {
	ds := distDS(t)
	for _, R := range []int{2, 4} {
		c, err := NewCluster(ds, ClusterOptions{Parts: R, CacheRows: 256})
		if err != nil {
			t.Fatal(err)
		}
		single, err := train.New(ds, distTrainCfg(R))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := single.Fit(2); err != nil {
			t.Fatal(err)
		}

		dcfg := distTrainCfg(R)
		dcfg.Stores = c.Stores
		dcfg.Graphs = c.Graphs
		distributed, err := train.New(ds, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := distributed.Fit(2); err != nil {
			t.Fatal(err)
		}
		bitEqualParams(t, fmt.Sprintf("R=%d single vs distributed", R), single, distributed)

		var wire int64
		for r := 0; r < R; r++ {
			wire += c.Remote(r).Stats().BytesRemote + c.Partitioned(r).Stats().WireBytes
		}
		if wire == 0 {
			t.Fatalf("R=%d: distributed training moved zero wire bytes", R)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterConcurrentRemoteGathers drives every part's Remote store and
// Partitioned view from many goroutines at once over real TCP — the -race
// gate for the distributed data plane (CI runs the suite with -race).
func TestClusterConcurrentRemoteGathers(t *testing.T) {
	ds := distDS(t)
	lists, seeds := sampleLists(t, ds, 4, 64)
	c, err := NewCluster(ds, ClusterOptions{Parts: 2, TCP: true, CacheRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	flat := store.NewFlat(ds)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for r := 0; r < 2; r++ {
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(r, w int) {
				defer wg.Done()
				rm := c.Remote(r)
				pv := c.Partitioned(r)
				for i, ids := range lists {
					buf := slicing.NewPinned(len(ids), ds.FeatDim, seeds[i])
					if err := rm.Gather(buf, ids, seeds[i]); err != nil {
						errs <- fmt.Errorf("part %d worker %d: %w", r, w, err)
						return
					}
					want := slicing.NewPinned(len(ids), ds.FeatDim, seeds[i])
					if err := flat.Gather(want, ids, seeds[i]); err != nil {
						errs <- err
						return
					}
					for j := range ids {
						for k := 0; k < ds.FeatDim; k++ {
							if buf.H[j*ds.FeatDim+k] != want.H[j*ds.FeatDim+k] {
								errs <- fmt.Errorf("part %d worker %d batch %d: row %d corrupt under concurrency", r, w, i, j)
								return
							}
						}
					}
					if err := pv.Prefetch(ids); err != nil {
						errs <- err
						return
					}
				}
			}(r, w)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClusterPeerDropMidEpochTyped kills a host's servers in the middle of a
// distributed training epoch: the epoch must fail fast with a typed
// transient transport error surfacing through the trainer — no hang, no
// panic, no garbage batch.
func TestClusterPeerDropMidEpochTyped(t *testing.T) {
	ds := distDS(t)
	c, err := NewCluster(ds, ClusterOptions{
		Parts: 2, TCP: true,
		Transport: transport.Options{Timeout: 500 * time.Millisecond, Retries: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := distTrainCfg(2)
	cfg.Stores = c.Stores
	cfg.Graphs = c.Graphs
	tr, err := train.New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := tr.TrainEpoch(0)
		done <- err
	}()
	// Wait until the epoch has provably started moving bytes, then take
	// every server down mid-flight.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var calls int64
		for _, conn := range c.Conns() {
			calls += conn.Stats().Calls
		}
		if calls > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, srv := range c.servers {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("epoch succeeded with every remote host down")
		}
		kind, ok := transport.KindOf(err)
		if !ok {
			t.Fatalf("epoch failure is untyped: %v", err)
		}
		if kind != transport.ErrUnavailable && kind != transport.ErrClosed {
			t.Fatalf("epoch failed with %v, want unavailable/closed: %v", kind, err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("distributed epoch hung after peer drop")
	}
}
