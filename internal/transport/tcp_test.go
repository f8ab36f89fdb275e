package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"salient/internal/half"
)

// stubHandler serves deterministic rows and adjacency derived from the node
// ID, so both transports can be checked for bit-identical payloads.
type stubHandler struct {
	dim  int
	n    int
	prec half.Precision
	gver uint64
}

func (h *stubHandler) Hello() Hello {
	return Hello{Proto: ProtoVersion, Dim: h.dim, NumNodes: h.n, NumEdges: int64(h.n) * 2, Precision: h.prec, GraphVersion: h.gver}
}

func (h *stubHandler) FetchRows(ids []int32, dst *Rows) error {
	for _, id := range ids {
		if id < 0 || int(id) >= h.n {
			return fmt.Errorf("node %d out of range [0,%d)", id, h.n)
		}
	}
	dst.Ensure(len(ids), h.dim, h.prec)
	dst.Labels = make([]int32, len(ids))
	for i, id := range ids {
		dst.Labels[i] = id % 40
		for j := 0; j < h.dim; j++ {
			v := float32(id)*0.5 + float32(j)
			switch h.prec {
			case half.FP32:
				dst.F[i*h.dim+j] = v
			case half.Int8:
				dst.Q[i*h.dim+j] = int8((int(id) + j) % 127)
			default:
				dst.H[i*h.dim+j] = half.FromFloat32(v)
			}
		}
		if h.prec == half.Int8 {
			dst.Scales[i] = 1 + float32(id)/64
		}
	}
	return nil
}

func (h *stubHandler) FetchNeighbors(ids []int32, dst *Adjacency) error {
	dst.Reset()
	dst.Ptr = append(dst.Ptr, 0)
	for _, id := range ids {
		if id < 0 || int(id) >= h.n {
			return fmt.Errorf("node %d out of range [0,%d)", id, h.n)
		}
		deg := int(id % 5)
		for k := 0; k < deg; k++ {
			dst.Adj = append(dst.Adj, (id+int32(k)+1)%int32(h.n))
		}
		dst.Ptr = append(dst.Ptr, int64(len(dst.Adj)))
	}
	return nil
}

func adjEqual(a, b *Adjacency) bool {
	if len(a.Ptr) != len(b.Ptr) || len(a.Adj) != len(b.Adj) {
		return false
	}
	for i := range a.Ptr {
		if a.Ptr[i] != b.Ptr[i] {
			return false
		}
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			return false
		}
	}
	return true
}

// TestLoopbackVsTCPIdentical runs the same fetch workload through loopback
// and through a real localhost socket: payloads must be bit-identical, every
// call's wire-byte figure must agree between the two transports, and the TCP
// socket's actual byte counters must equal the computed totals plus the one
// handshake frame — the accounting oracle this whole PR leans on.
func TestLoopbackVsTCPIdentical(t *testing.T) {
	for _, prec := range []half.Precision{half.FP16, half.FP32, half.Int8} {
		h := &stubHandler{dim: 6, n: 500, prec: prec, gver: 9}
		srv, err := ListenAndServe("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		lb := Loopback(h)
		tc, err := DialTCP(srv.Addr(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if lb.Hello() != tc.Hello() {
			t.Fatalf("%s: hellos differ: %+v vs %+v", prec, lb.Hello(), tc.Hello())
		}
		batches := [][]int32{{0, 1, 2}, {499, 250, 3, 17}, {42}}
		for _, ids := range batches {
			var rl, rt Rows
			wl, err := lb.FetchRows(ids, &rl)
			if err != nil {
				t.Fatal(err)
			}
			wt, err := tc.FetchRows(ids, &rt)
			if err != nil {
				t.Fatal(err)
			}
			if !rowsEqual(&rl, &rt) {
				t.Fatalf("%s: rows differ between loopback and TCP for %v", prec, ids)
			}
			if wl != wt {
				t.Fatalf("%s: wire bytes differ: loopback %d, TCP %d", prec, wl, wt)
			}
			if want := RowsReqFrameBytes(len(ids)) + RowsRespFrameBytes(len(ids), h.dim, prec); wt != want {
				t.Fatalf("%s: TCP moved %d bytes, frame arithmetic says %d", prec, wt, want)
			}
			var al, at Adjacency
			nwl, err := lb.FetchNeighbors(ids, &al)
			if err != nil {
				t.Fatal(err)
			}
			nwt, err := tc.FetchNeighbors(ids, &at)
			if err != nil {
				t.Fatal(err)
			}
			if !adjEqual(&al, &at) {
				t.Fatalf("%s: adjacency differs between loopback and TCP for %v", prec, ids)
			}
			if nwl != nwt {
				t.Fatalf("%s: neighbor wire bytes differ: loopback %d, TCP %d", prec, nwl, nwt)
			}
		}
		ls, ts := lb.Stats(), tc.Stats()
		if ls.Calls != ts.Calls || ls.Rows != ts.Rows || ls.Neighbors != ts.Neighbors {
			t.Fatalf("%s: call accounting differs: %+v vs %+v", prec, ls, ts)
		}
		if ts.BytesSent != ls.BytesSent {
			t.Fatalf("%s: TCP sent %d socket bytes, loopback computed %d", prec, ts.BytesSent, ls.BytesSent)
		}
		if ts.BytesRecv != ls.BytesRecv+HelloFrameBytes() {
			t.Fatalf("%s: TCP received %d socket bytes, loopback %d + handshake %d",
				prec, ts.BytesRecv, ls.BytesRecv, HelloFrameBytes())
		}
		tc.Close()
		srv.Close()
	}
}

// TestTCPRejectedIDs: the server answers an out-of-range fetch with a typed
// errResp the client surfaces as ErrRejected — and the connection stays
// usable for the next call.
func TestTCPRejectedIDs(t *testing.T) {
	h := &stubHandler{dim: 4, n: 100, prec: half.FP16}
	srv, err := ListenAndServe("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tc, err := DialTCP(srv.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	var rows Rows
	_, err = tc.FetchRows([]int32{5, 1000}, &rows)
	if k, ok := KindOf(err); !ok || k != ErrRejected {
		t.Fatalf("out-of-range fetch: got %v, want typed rejection", err)
	}
	if IsTransient(err) {
		t.Fatal("a rejection must not be transient: retrying would fail identically")
	}
	if _, err := tc.FetchRows([]int32{5}, &rows); err != nil {
		t.Fatalf("connection unusable after rejection: %v", err)
	}
}

// TestTCPProtoMismatch: a peer speaking a different protocol version is a
// typed mismatch at dial, before any row is fetched.
func TestTCPProtoMismatch(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.Write(appendHello(nil, Hello{Proto: ProtoVersion + 7, Dim: 4, NumNodes: 10, Precision: half.FP16}))
		c.Close()
	}()
	_, err = DialTCP(l.Addr().String(), Options{Timeout: time.Second})
	if k, ok := KindOf(err); !ok || k != ErrMismatch {
		t.Fatalf("dial against wrong proto: got %v, want typed mismatch", err)
	}
}

// TestTCPRetryAcrossServerRestart: kill the server under a live client, bring
// a new one up on the same port, and the next fetch must transparently redial
// and succeed, counting a retry.
func TestTCPRetryAcrossServerRestart(t *testing.T) {
	h := &stubHandler{dim: 4, n: 100, prec: half.FP16, gver: 2}
	srv, err := ListenAndServe("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	tc, err := DialTCP(addr, Options{Timeout: 2 * time.Second, Retries: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	var rows Rows
	if _, err := tc.FetchRows([]int32{1, 2}, &rows); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Rebind the same port; retry briefly in case the OS is slow to release.
	var srv2 *Server
	for i := 0; i < 50; i++ {
		if srv2, err = ListenAndServe(addr, h); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer srv2.Close()
	if _, err := tc.FetchRows([]int32{3, 4}, &rows); err != nil {
		t.Fatalf("fetch across restart: %v", err)
	}
	if st := tc.Stats(); st.Retries == 0 {
		t.Fatal("expected at least one counted retry across the restart")
	}
}

// TestTCPServerGoneTyped: with the server down for good, a fetch fails with
// a typed transient error after exhausting retries — bounded time, no hang,
// no panic.
func TestTCPServerGoneTyped(t *testing.T) {
	h := &stubHandler{dim: 4, n: 100, prec: half.FP16}
	srv, err := ListenAndServe("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := DialTCP(srv.Addr(), Options{Timeout: 500 * time.Millisecond, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	srv.Close()
	var rows Rows
	done := make(chan error, 1)
	go func() {
		_, err := tc.FetchRows([]int32{1}, &rows)
		done <- err
	}()
	select {
	case err := <-done:
		if !IsTransient(err) {
			t.Fatalf("dead server: got %v, want typed transient error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fetch against dead server hung")
	}
}

// TestTCPConcurrentFetches drives one Conn from many goroutines (the
// concurrent-gather shape of the prep executors); with -race this is the
// transport half of the distributed race gate.
func TestTCPConcurrentFetches(t *testing.T) {
	h := &stubHandler{dim: 8, n: 1000, prec: half.Int8}
	srv, err := ListenAndServe("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tc, err := DialTCP(srv.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var rows Rows
			var adj Adjacency
			want := &stubHandler{dim: h.dim, n: h.n, prec: h.prec}
			for i := 0; i < 50; i++ {
				ids := []int32{int32((w*131 + i*7) % h.n), int32((w + i) % h.n)}
				if _, err := tc.FetchRows(ids, &rows); err != nil {
					errc <- err
					return
				}
				var ref Rows
				want.FetchRows(ids, &ref)
				if !rowsEqual(&rows, &ref) {
					errc <- errors.New("concurrent fetch returned wrong rows")
					return
				}
				if _, err := tc.FetchNeighbors(ids, &adj); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestClosedConnTyped: use-after-Close is a typed ErrClosed on both
// transports.
func TestClosedConnTyped(t *testing.T) {
	h := &stubHandler{dim: 4, n: 10, prec: half.FP16}
	srv, err := ListenAndServe("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tc, err := DialTCP(srv.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc.Close()
	lb := Loopback(h)
	lb.Close()
	var rows Rows
	for name, c := range map[string]Conn{"tcp": tc, "loopback": lb} {
		_, err := c.FetchRows([]int32{1}, &rows)
		if k, ok := KindOf(err); !ok || k != ErrClosed {
			t.Fatalf("%s: fetch after close: got %v, want typed closed", name, err)
		}
	}
}
