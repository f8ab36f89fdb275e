package transport

import (
	"bytes"
	"io"
	"math"
	"testing"

	"salient/internal/half"
)

// mustReadFrame decodes one frame from raw bytes.
func mustReadFrame(t *testing.T, raw []byte) (byte, []byte) {
	t.Helper()
	typ, payload, _, err := readFrame(bytes.NewReader(raw), nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return typ, payload
}

// TestFrameSizeHelpersMatchEncoders pins the codec's single source of wire
// truth: every encoder emits exactly the byte count its *FrameBytes helper
// predicts — the identity the loopback accounting and store.Remote's wire
// stats both lean on.
func TestFrameSizeHelpersMatchEncoders(t *testing.T) {
	hello := Hello{Proto: ProtoVersion, Dim: 128, NumNodes: 9999, NumEdges: 123456, Precision: half.Int8, GraphVersion: 7}
	if got := int64(len(appendHello(nil, hello))); got != HelloFrameBytes() {
		t.Fatalf("hello frame is %d bytes, helper says %d", got, HelloFrameBytes())
	}
	ids := []int32{0, 5, 17, 123456, 2}
	if got := int64(len(appendIDsFrame(nil, msgRowsReq, ids))); got != RowsReqFrameBytes(len(ids)) {
		t.Fatalf("rowsReq frame is %d bytes, helper says %d", got, RowsReqFrameBytes(len(ids)))
	}
	if got := int64(len(appendIDsFrame(nil, msgNeighReq, ids))); got != NeighReqFrameBytes(len(ids)) {
		t.Fatalf("neighReq frame is %d bytes, helper says %d", got, NeighReqFrameBytes(len(ids)))
	}
	for _, prec := range []half.Precision{half.FP16, half.FP32, half.Int8} {
		rows := testRows(3, 4, prec)
		if got := int64(len(appendRowsResp(nil, rows))); got != RowsRespFrameBytes(3, 4, prec) {
			t.Fatalf("%s rowsResp frame is %d bytes, helper says %d", prec, got, RowsRespFrameBytes(3, 4, prec))
		}
	}
	adj := &Adjacency{Ptr: []int64{0, 2, 2, 5}, Adj: []int32{1, 2, 9, 8, 7}}
	if got := int64(len(appendNeighResp(nil, adj))); got != NeighRespFrameBytes(3, 5) {
		t.Fatalf("neighResp frame is %d bytes, helper says %d", got, NeighRespFrameBytes(3, 5))
	}
}

// testRows builds a deterministic row payload at prec.
func testRows(n, dim int, prec half.Precision) *Rows {
	r := &Rows{}
	r.Ensure(n, dim, prec)
	r.Labels = make([]int32, n)
	for i := 0; i < n; i++ {
		r.Labels[i] = int32(40 - i)
		for j := 0; j < dim; j++ {
			switch prec {
			case half.FP32:
				r.F[i*dim+j] = float32(i) - 0.25*float32(j)
			case half.Int8:
				r.Q[i*dim+j] = int8(i*dim + j - 7)
			default:
				r.H[i*dim+j] = half.FromFloat32(float32(i) - 0.25*float32(j))
			}
		}
		if prec == half.Int8 {
			r.Scales[i] = 0.5 + float32(i)
		}
	}
	return r
}

func rowsEqual(a, b *Rows) bool {
	if a.Prec != b.Prec || a.Dim != b.Dim || a.N != b.N {
		return false
	}
	eq := true
	switch a.Prec {
	case half.FP32:
		eq = bytes.Equal(f32bytes(a.F), f32bytes(b.F))
	case half.Int8:
		eq = bytes.Equal(i8bytes(a.Q), i8bytes(b.Q)) && bytes.Equal(f32bytes(a.Scales), f32bytes(b.Scales))
	default:
		for i := range a.H {
			eq = eq && a.H[i] == b.H[i]
		}
	}
	for i := range a.Labels {
		eq = eq && a.Labels[i] == b.Labels[i]
	}
	return eq
}

func f32bytes(f []float32) []byte {
	b := make([]byte, 0, 4*len(f))
	for _, v := range f {
		u := math.Float32bits(v)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return b
}

func i8bytes(q []int8) []byte {
	b := make([]byte, len(q))
	for i, v := range q {
		b[i] = byte(v)
	}
	return b
}

func TestHelloRoundTrip(t *testing.T) {
	want := Hello{Proto: ProtoVersion, Dim: 128, NumNodes: 170000, NumEdges: 1 << 21, Precision: half.FP32, GraphVersion: 42}
	typ, payload := mustReadFrame(t, appendHello(nil, want))
	if typ != msgHello {
		t.Fatalf("frame type %d, want hello", typ)
	}
	got, err := decodeHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("hello round-trip: got %+v, want %+v", got, want)
	}
}

func TestIDsRoundTrip(t *testing.T) {
	want := []int32{3, 1, 4, 1, 5, 92653}
	typ, payload := mustReadFrame(t, appendIDsFrame(nil, msgRowsReq, want))
	if typ != msgRowsReq {
		t.Fatalf("frame type %d, want rowsReq", typ)
	}
	got, err := decodeIDs(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d IDs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ID %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRowsRoundTripAllPrecisions(t *testing.T) {
	for _, prec := range []half.Precision{half.FP16, half.FP32, half.Int8} {
		want := testRows(5, 7, prec)
		typ, payload := mustReadFrame(t, appendRowsResp(nil, want))
		if typ != msgRowsResp {
			t.Fatalf("%s: frame type %d, want rowsResp", prec, typ)
		}
		var got Rows
		if err := decodeRowsResp(payload, &got, 5, 7, prec); err != nil {
			t.Fatalf("%s: %v", prec, err)
		}
		if !rowsEqual(want, &got) {
			t.Fatalf("%s: rows round-trip mismatch", prec)
		}
	}
}

func TestNeighRoundTrip(t *testing.T) {
	want := &Adjacency{Ptr: []int64{0, 3, 3, 4, 9}, Adj: []int32{5, 6, 7, 1, 0, 2, 4, 6, 8}}
	typ, payload := mustReadFrame(t, appendNeighResp(nil, want))
	if typ != msgNeighResp {
		t.Fatalf("frame type %d, want neighResp", typ)
	}
	var got Adjacency
	if err := decodeNeighResp(payload, &got, 4); err != nil {
		t.Fatal(err)
	}
	if len(got.Ptr) != len(want.Ptr) || len(got.Adj) != len(want.Adj) {
		t.Fatalf("shape mismatch: got %d/%d, want %d/%d", len(got.Ptr), len(got.Adj), len(want.Ptr), len(want.Adj))
	}
	for i := range want.Ptr {
		if got.Ptr[i] != want.Ptr[i] {
			t.Fatalf("Ptr[%d]: got %d, want %d", i, got.Ptr[i], want.Ptr[i])
		}
	}
	for i := range want.Adj {
		if got.Adj[i] != want.Adj[i] {
			t.Fatalf("Adj[%d]: got %d, want %d", i, got.Adj[i], want.Adj[i])
		}
	}
}

func TestErrRespRoundTrip(t *testing.T) {
	typ, payload := mustReadFrame(t, appendErrResp(nil, ErrRejected, "node 99 out of range"))
	if typ != msgError {
		t.Fatalf("frame type %d, want errResp", typ)
	}
	kind, msg, err := decodeErrResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if kind != ErrRejected || msg != "node 99 out of range" {
		t.Fatalf("got (%v, %q)", kind, msg)
	}
}

// TestTruncatedFramesRejected cuts a valid frame at every byte boundary:
// every prefix must fail loudly (truncation or proto error), never decode.
func TestTruncatedFramesRejected(t *testing.T) {
	raw := appendRowsResp(nil, testRows(2, 3, half.FP16))
	for cut := 0; cut < len(raw); cut++ {
		_, _, _, err := readFrame(bytes.NewReader(raw[:cut]), nil)
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(raw))
		}
	}
	// A frame followed by a stream cut mid-second-frame: first decodes, the
	// second surfaces the truncation.
	double := append(append([]byte{}, raw...), raw[:7]...)
	r := bytes.NewReader(double)
	if _, _, _, err := readFrame(r, nil); err != nil {
		t.Fatalf("intact first frame: %v", err)
	}
	if _, _, _, err := readFrame(r, nil); err == nil {
		t.Fatal("truncated second frame decoded without error")
	}
}

// TestCorruptFramesTyped pins the corruption cases to typed proto errors:
// zero-length frames, oversized length prefixes, payload/claim mismatches.
func TestCorruptFramesTyped(t *testing.T) {
	cases := map[string][]byte{
		"zero length":     {0, 0, 0, 0},
		"oversized claim": {0xff, 0xff, 0xff, 0xff, msgRowsReq},
	}
	for name, raw := range cases {
		_, _, _, err := readFrame(bytes.NewReader(raw), nil)
		if k, ok := KindOf(err); !ok || k != ErrProto {
			t.Fatalf("%s: got %v, want typed proto error", name, err)
		}
	}
	// Payload-level corruption: an ID list whose count disagrees with its size.
	raw := appendIDsFrame(nil, msgRowsReq, []int32{1, 2, 3})
	raw[frameHeaderBytes] = 99 // claim 99 IDs
	_, payload := mustReadFrame(t, raw)
	if _, err := decodeIDs(payload, nil); err == nil {
		t.Fatal("corrupt ID count decoded without error")
	} else if k, _ := KindOf(err); k != ErrProto {
		t.Fatalf("corrupt ID count: kind %v, want proto", k)
	}
	// A rows response shorter than the handshake-implied size.
	rowsRaw := appendRowsResp(nil, testRows(2, 3, half.FP16))
	_, rowsPayload := mustReadFrame(t, rowsRaw)
	var dst Rows
	if err := decodeRowsResp(rowsPayload, &dst, 2, 4, half.FP16); err == nil {
		t.Fatal("dim-mismatched rows decoded without error")
	} else if k, _ := KindOf(err); k != ErrProto {
		t.Fatalf("dim-mismatched rows: kind %v, want proto", k)
	}
	// An adjacency whose degree sum exceeds the payload.
	adjRaw := appendNeighResp(nil, &Adjacency{Ptr: []int64{0, 2}, Adj: []int32{1, 2}})
	adjRaw[frameHeaderBytes+4] = 200 // degree claims 200 entries
	_, adjPayload := mustReadFrame(t, adjRaw)
	var adj Adjacency
	if err := decodeNeighResp(adjPayload, &adj, 1); err == nil {
		t.Fatal("degree-inflated adjacency decoded without error")
	} else if k, _ := KindOf(err); k != ErrProto {
		t.Fatalf("degree-inflated adjacency: kind %v, want proto", k)
	}
}

// TestCheckHelloTyped pins the handshake property of satellite 3: version
// and precision mismatches are typed ErrMismatch, not garbage rows.
func TestCheckHelloTyped(t *testing.T) {
	base := Hello{Proto: ProtoVersion, Dim: 8, NumNodes: 100, Precision: half.FP16, GraphVersion: 3}
	if err := CheckHello(base, base); err != nil {
		t.Fatalf("matching hellos: %v", err)
	}
	for name, got := range map[string]Hello{
		"protocol":      {Proto: ProtoVersion + 1, Dim: 8, NumNodes: 100, Precision: half.FP16, GraphVersion: 3},
		"precision":     {Proto: ProtoVersion, Dim: 8, NumNodes: 100, Precision: half.Int8, GraphVersion: 3},
		"graph version": {Proto: ProtoVersion, Dim: 8, NumNodes: 100, Precision: half.FP16, GraphVersion: 4},
	} {
		err := CheckHello(got, base)
		if k, ok := KindOf(err); !ok || k != ErrMismatch {
			t.Fatalf("%s mismatch: got %v, want typed mismatch", name, err)
		}
	}
}

// TestReadFrameIOPassthrough: raw stream death (not a protocol violation)
// must pass through untyped so the client can classify it transient.
func TestReadFrameIOPassthrough(t *testing.T) {
	_, _, _, err := readFrame(bytes.NewReader(nil), nil)
	if err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
	if _, typed := KindOf(err); typed {
		t.Fatal("clean EOF should not be a typed transport error")
	}
	if !transientCause(err) {
		t.Fatal("clean EOF should classify as transient")
	}
}
