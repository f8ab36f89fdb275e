// Package transport is the wire seam of the distributed data plane: a
// minimal RPC-ish interface with exactly the two batched fetches the data
// path needs — feature rows and adjacency — plus a versioned handshake that
// pins what the peer serves (dim, precision, graph version) before any row
// crosses.
//
// Two implementations share one frame codec:
//
//   - Loopback executes fetches in-process on the caller's goroutine. Rows
//     are written by the handler directly into the caller's buffers, so the
//     loopback path is bit-identical to a local gather; wire bytes are
//     *accounted* with the same frame-size arithmetic the TCP codec uses,
//     making loopback stats an exact prediction of what TCP would move.
//   - TCP speaks length-prefixed frames over a real socket with per-call
//     deadlines and retry-on-transient semantics (fetches are idempotent
//     reads, so a dropped connection redials and replays safely).
//
// The package is a leaf: it depends only on internal/half and the standard
// library. Graph and store build their distributed halves on top of it.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"

	"salient/internal/half"
)

// ProtoVersion is the wire protocol revision. Both ends exchange it in the
// handshake; a mismatch is a typed ErrMismatch at dial time, never garbage
// rows later.
const ProtoVersion = 1

// Hello is the handshake either side serves: what the peer holds and at what
// precision, pinned before any fetch. Dim/NumNodes compatibility against a
// dataset is the caller's policy (store.Validate's shape check — one
// implementation); the transport itself enforces only Proto.
type Hello struct {
	Proto        uint16
	Dim          int
	NumNodes     int
	NumEdges     int64
	Precision    half.Precision
	GraphVersion uint64
}

// Rows is the batched row payload of a FetchRows call: len(ids) rows as a
// half.Matrix at one storage precision — the same layout as the stores'
// host matrices, so rows cross the wire at storage precision (fp16 and int8
// rows stay narrow on the network) — plus one label per row.
type Rows struct {
	half.Matrix
	Labels []int32 // one label per row, N
}

// Adjacency is the batched neighbor payload of a FetchNeighbors call: the
// neighbors of ids[i] are Adj[Ptr[i]:Ptr[i+1]] (a CSR fragment in request
// order).
type Adjacency struct {
	Ptr []int64
	Adj []int32
}

// Reset empties the adjacency for reuse, keeping capacity.
func (a *Adjacency) Reset() {
	a.Ptr = a.Ptr[:0]
	a.Adj = a.Adj[:0]
}

// Handler is the server side of the seam: whoever owns a partition's rows
// and adjacency implements these two batched fetches. Implementations must
// be safe for concurrent calls (the TCP server runs one goroutine per
// accepted connection) and must reject out-of-range IDs with an error rather
// than serving garbage.
type Handler interface {
	// Hello describes what this handler serves; sent at connection accept.
	Hello() Hello
	// FetchRows writes the rows for ids into dst (shaped with Ensure) and
	// sets dst.Labels to one label per row.
	FetchRows(ids []int32, dst *Rows) error
	// FetchNeighbors writes the adjacency of ids into dst (Reset first).
	FetchNeighbors(ids []int32, dst *Adjacency) error
}

// Conn is a client connection to one host. Calls are serialized internally
// (one in-flight request per connection), so a Conn is safe for concurrent
// use by multiple gathering workers. Each fetch returns the wire bytes the
// call moved in both directions — request and response frames — which is
// what store.Remote charges as real network traffic.
type Conn interface {
	// Hello returns the peer's handshake, validated for ProtoVersion at dial.
	Hello() Hello
	// FetchRows fetches rows+labels for ids into dst and returns wire bytes.
	FetchRows(ids []int32, dst *Rows) (int64, error)
	// FetchNeighbors fetches adjacency for ids into dst and returns wire bytes.
	FetchNeighbors(ids []int32, dst *Adjacency) (int64, error)
	// Stats returns the connection's accumulated wire accounting.
	Stats() Stats
	// Close releases the connection; further calls fail with ErrClosed.
	Close() error
}

// Stats is a Conn's accumulated wire accounting. For TCP, BytesSent and
// BytesRecv count actual socket bytes (handshake and retries included); for
// loopback they are computed from the shared frame-size arithmetic, so a
// clean TCP run and a loopback run of the same workload report identical
// totals plus the TCP handshake frame.
type Stats struct {
	Calls     int64 // completed fetch calls
	Rows      int64 // feature rows fetched
	Neighbors int64 // adjacency entries fetched
	BytesSent int64 // request-direction wire bytes
	BytesRecv int64 // response-direction wire bytes
	Retries   int64 // transient failures retried
}

// ErrKind classifies transport failures so callers can branch on semantics
// instead of string-matching.
type ErrKind int

const (
	// ErrProto: malformed, truncated, corrupt, or oversized frame. Never
	// transient — the stream is unsynchronized and the connection is dropped.
	ErrProto ErrKind = iota
	// ErrMismatch: handshake incompatibility — protocol version, precision,
	// dimensionality, or graph version disagree.
	ErrMismatch
	// ErrUnavailable: the peer is unreachable or the connection died
	// (refused, reset, deadline exceeded). Transient: fetches are idempotent,
	// so the client redials and retries up to its budget.
	ErrUnavailable
	// ErrRejected: the peer processed the request and refused it (e.g. an
	// out-of-range node ID). Not transient — retrying would fail identically.
	ErrRejected
	// ErrClosed: the Conn was used after Close.
	ErrClosed
)

func (k ErrKind) String() string {
	switch k {
	case ErrProto:
		return "proto"
	case ErrMismatch:
		return "mismatch"
	case ErrUnavailable:
		return "unavailable"
	case ErrRejected:
		return "rejected"
	case ErrClosed:
		return "closed"
	}
	return "unknown"
}

// Error is the typed failure every transport operation returns.
type Error struct {
	Kind ErrKind
	Op   string // "dial", "fetch_rows", "fetch_neighbors", ...
	Msg  string
	Err  error // underlying cause, if any
}

func (e *Error) Error() string {
	s := fmt.Sprintf("transport: %s: %s", e.Op, e.Kind)
	if e.Msg != "" {
		s += ": " + e.Msg
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

func (e *Error) Unwrap() error { return e.Err }

// Transient reports whether retrying the operation could succeed.
func (e *Error) Transient() bool { return e.Kind == ErrUnavailable }

// IsTransient reports whether err is a transport error worth retrying.
func IsTransient(err error) bool {
	var te *Error
	return errors.As(err, &te) && te.Transient()
}

// KindOf extracts the transport error kind from err, if it carries one.
func KindOf(err error) (ErrKind, bool) {
	var te *Error
	if errors.As(err, &te) {
		return te.Kind, true
	}
	return 0, false
}

// errf builds a typed transport error.
func errf(kind ErrKind, op string, cause error, format string, args ...any) *Error {
	return &Error{Kind: kind, Op: op, Msg: fmt.Sprintf(format, args...), Err: cause}
}

// CheckHello verifies a peer's handshake against what the caller expects to
// be on the other end: wire protocol, storage precision, and graph version
// must agree exactly (dim/row-count policy lives in store.Validate). Returns
// a typed ErrMismatch naming the first disagreement.
func CheckHello(got, want Hello) error {
	if got.Proto != want.Proto {
		return errf(ErrMismatch, "handshake", nil, "protocol version %d, want %d", got.Proto, want.Proto)
	}
	if got.Precision != want.Precision {
		return errf(ErrMismatch, "handshake", nil, "peer serves %s rows, want %s", got.Precision, want.Precision)
	}
	if got.GraphVersion != want.GraphVersion {
		return errf(ErrMismatch, "handshake", nil, "peer graph version %d, want %d", got.GraphVersion, want.GraphVersion)
	}
	return nil
}

// transientCause reports whether a raw I/O error is worth a redial: the
// peer was unreachable or the stream died mid-exchange.
func transientCause(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
