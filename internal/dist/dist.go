// Package dist wires the distributed data plane: it puts a transport.Handler
// in front of one host's data (feature rows, labels, adjacency) and builds
// whole clusters — R partitions, each with a store.Remote for features and a
// graph.Partitioned for topology, connected over loopback or TCP.
//
// The package exists so the distributed setting §8 of the paper sketches can
// be executed, not just simulated: a loopback cluster runs R-replica training
// through real remote stores and partitioned views with bit-identical results
// to the single-host trainer (the union-schedule oracle extends across the
// wire), and a TCP cluster runs the identical byte streams over real sockets.
package dist

import (
	"fmt"
	"sync"

	"salient/internal/dataset"
	"salient/internal/graph"
	"salient/internal/half"
	"salient/internal/transport"
)

// handler serves one host's share of the data plane from the local dataset:
// feature rows encoded at the advertised precision from the dataset's fp16
// master values (the exact encoding every local store uses, so wire rows are
// bitwise equal to locally laid-out rows) and adjacency from a pinned graph
// view. It is stateless per call and safe for concurrent requests.
type handler struct {
	ds    *dataset.Dataset
	view  graph.View
	hello transport.Hello
	// scratch recycles FetchRows' Dim-float re-encode row (*[]float32);
	// fetches run concurrently, so each takes its own.
	scratch sync.Pool
}

// NewHandler builds the transport.Handler for a host holding ds, serving
// adjacency from the pinned view v and rows at precision prec.
func NewHandler(ds *dataset.Dataset, v graph.View, prec half.Precision) (transport.Handler, error) {
	if !prec.Valid() {
		return nil, fmt.Errorf("dist: invalid precision %d", prec)
	}
	return &handler{
		ds:   ds,
		view: v,
		hello: transport.Hello{
			Proto:        transport.ProtoVersion,
			Dim:          ds.FeatDim,
			NumNodes:     int(ds.G.N),
			NumEdges:     v.NumEdges(),
			Precision:    prec,
			GraphVersion: v.Version(),
		},
	}, nil
}

func (h *handler) Hello() transport.Hello { return h.hello }

// FetchRows encodes the requested rows at the handshake precision straight
// from the fp16 master, plus one label per row. Out-of-range IDs reject the
// whole request (the transport surfaces it as a typed non-transient error).
func (h *handler) FetchRows(ids []int32, dst *transport.Rows) error {
	dim := h.hello.Dim
	n := h.hello.NumNodes
	dst.Ensure(len(ids), dim, h.hello.Precision)
	dst.Labels = dst.Labels[:0]
	sp, _ := h.scratch.Get().(*[]float32)
	if sp == nil {
		row := make([]float32, dim)
		sp = &row
	}
	defer h.scratch.Put(sp)
	scratch := *sp
	for j, id := range ids {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("dist: node %d out of range [0,%d)", id, n)
		}
		dst.SetFromFP16(j, h.ds.FeatHalf[int(id)*dim:(int(id)+1)*dim], scratch)
		dst.Labels = append(dst.Labels, h.ds.Labels[id])
	}
	return nil
}

// FetchNeighbors serves the adjacency of ids from the pinned view.
func (h *handler) FetchNeighbors(ids []int32, dst *transport.Adjacency) error {
	n := int32(h.hello.NumNodes)
	dst.Reset()
	dst.Ptr = append(dst.Ptr, 0)
	for _, id := range ids {
		if id < 0 || id >= n {
			return fmt.Errorf("dist: node %d out of range [0,%d)", id, n)
		}
		dst.Adj = append(dst.Adj, h.view.Neighbors(id)...)
		dst.Ptr = append(dst.Ptr, int64(len(dst.Adj)))
	}
	return nil
}
