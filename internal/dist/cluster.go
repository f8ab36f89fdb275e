package dist

import (
	"fmt"

	"salient/internal/dataset"
	"salient/internal/graph"
	"salient/internal/half"
	"salient/internal/partition"
	"salient/internal/store"
	"salient/internal/transport"
)

// ClusterOptions configures NewCluster.
type ClusterOptions struct {
	// Parts is the partition (and host) count R. Must be at least 2.
	Parts int
	// TCP runs every inter-part connection over a real localhost socket
	// instead of in-process loopback. Contents are bit-identical either way;
	// TCP adds real framing, deadlines, and retry behavior.
	TCP bool
	// Precision is the storage/wire precision of every host's store. Zero
	// selects fp16.
	Precision half.Precision
	// CacheRows bounds each host's mirror of remote rows, warmed once at
	// construction with the highest-degree ones (see
	// store.RemoteOptions.CacheRows).
	CacheRows int
	// Assignment optionally fixes the node→part placement. Nil computes an
	// LDG assignment over the dataset graph (the placement §8 argues keeps
	// cross-host traffic low).
	Assignment *partition.Assignment
	// Transport sets TCP deadlines and retry budgets; ignored for loopback.
	Transport transport.Options
}

// Cluster is an executable R-host distributed data plane over one dataset:
// per part, a store.Remote holding that part's rows (plus a mirror of the
// CacheRows highest-degree remote rows) and a graph.Partitioned serving
// that part's adjacency natively, with everything else fetched from the
// owning part over the chosen transport. Feed Stores/Graphs straight
// into train.Config to run distributed data-parallel training.
type Cluster struct {
	// Assignment is the node→part placement the cluster is laid out by.
	Assignment *partition.Assignment
	// Stores[r] is part r's feature store (a *store.Remote).
	Stores []store.FeatureStore
	// Graphs[r] is part r's topology view (a *graph.Partitioned).
	Graphs []graph.Viewer

	servers []*transport.Server
	conns   []transport.Conn
}

// Remote returns part r's store with its concrete type.
func (c *Cluster) Remote(r int) *store.Remote { return c.Stores[r].(*store.Remote) }

// Partitioned returns part r's view with its concrete type.
func (c *Cluster) Partitioned(r int) *graph.Partitioned { return c.Graphs[r].(*graph.Partitioned) }

// Conns returns every inter-part connection (ordered by dialing part, then
// owning part) — the cluster-wide wire accounting.
func (c *Cluster) Conns() []transport.Conn { return c.conns }

// Close shuts down every connection and server. Safe to call more than once.
func (c *Cluster) Close() error {
	var first error
	for _, conn := range c.conns {
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, s := range c.servers {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NewCluster builds the R-part data plane over ds. In this single-process
// reproduction every "host" is backed by the same dataset (each host's
// handler can therefore serve any row its peers ask for, exactly as host p
// would serve its own partition), but each part's Remote store physically
// holds only its home rows and each Partitioned view fetches non-home
// adjacency over the wire — the data path is the distributed one.
func NewCluster(ds *dataset.Dataset, opts ClusterOptions) (*Cluster, error) {
	if opts.Parts < 2 {
		return nil, fmt.Errorf("dist: need at least 2 parts, got %d", opts.Parts)
	}
	prec := opts.Precision
	if prec == 0 {
		prec = half.FP16
	}
	a := opts.Assignment
	if a == nil {
		var err error
		if a, err = partition.LDG(ds.G, opts.Parts); err != nil {
			return nil, err
		}
	}
	if a.Parts != opts.Parts {
		return nil, fmt.Errorf("dist: assignment has %d parts, options ask for %d", a.Parts, opts.Parts)
	}

	view := graph.Static(ds.G).View()
	h, err := NewHandler(ds, view, prec)
	if err != nil {
		return nil, err
	}

	c := &Cluster{Assignment: a}
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}

	// One server per part under TCP; dial returns a fresh Conn per ordered
	// (dialer, owner) pair either way, so every host's wire accounting is
	// independent.
	var addrs []string
	if opts.TCP {
		for p := 0; p < opts.Parts; p++ {
			srv, err := transport.ListenAndServe("127.0.0.1:0", h)
			if err != nil {
				return fail(err)
			}
			c.servers = append(c.servers, srv)
			addrs = append(addrs, srv.Addr())
		}
	}
	dial := func(owner int) (transport.Conn, error) {
		if opts.TCP {
			return transport.DialTCP(addrs[owner], opts.Transport)
		}
		return transport.Loopback(h), nil
	}

	for r := 0; r < opts.Parts; r++ {
		peers := make([]transport.Conn, opts.Parts)
		for p := 0; p < opts.Parts; p++ {
			if p == r {
				continue
			}
			conn, err := dial(p)
			if err != nil {
				return fail(err)
			}
			peers[p] = conn
			c.conns = append(c.conns, conn)
		}
		st, err := store.NewRemote(ds, a, int32(r), peers, store.RemoteOptions{
			Precision: prec,
			CacheRows: opts.CacheRows,
		})
		if err != nil {
			return fail(fmt.Errorf("dist: part %d store: %w", r, err))
		}
		g, err := graph.NewPartitioned(view, a.Part, int32(r), peers)
		if err != nil {
			return fail(fmt.Errorf("dist: part %d view: %w", r, err))
		}
		c.Stores = append(c.Stores, st)
		c.Graphs = append(c.Graphs, g)
	}
	return c, nil
}
