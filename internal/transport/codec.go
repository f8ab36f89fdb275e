package transport

import (
	"encoding/binary"
	"io"
	"math"

	"salient/internal/half"
)

// Wire format: length-prefixed frames, little-endian throughout.
//
//	[u32 frameLen][u8 msgType][payload ...]   frameLen = 1 + len(payload)
//
// Payloads:
//
//	hello     u16 proto · u32 dim · u64 numNodes · u64 numEdges ·
//	          u8 precision · u64 graphVersion
//	rowsReq   u32 n · n×u32 nodeID
//	rowsResp  u32 n · n×rowBytes(prec,dim) feature payload · n×u32 label
//	          (int8 rows carry dim bytes + one f32 scale each, the same
//	          per-row cost as the host half.Matrix)
//	neighReq  u32 n · n×u32 nodeID
//	neighResp u32 n · n×u32 degree · total×u32 neighbor
//	errResp   u8 kind · u32 msgLen · msg bytes
//
// The *FrameBytes helpers below are the single source of wire-size truth:
// the TCP encoder emits frames of exactly these sizes, and the loopback
// transport charges them as its accounting — which is what lets a loopback
// run predict a TCP run's traffic bit-for-bit.

const (
	msgHello     byte = 1
	msgRowsReq   byte = 2
	msgRowsResp  byte = 3
	msgNeighReq  byte = 4
	msgNeighResp byte = 5
	msgError     byte = 6
)

const (
	frameHeaderBytes  = 5 // u32 length + u8 type
	helloPayloadBytes = 2 + 4 + 8 + 8 + 1 + 8
	// maxFramePayload bounds a single frame; anything larger is rejected as
	// corrupt before allocation (a garbage length prefix must not OOM us).
	maxFramePayload = 1 << 28
)

// HelloFrameBytes returns the framed size of the handshake message.
func HelloFrameBytes() int64 { return frameHeaderBytes + helloPayloadBytes }

// RowsReqFrameBytes returns the framed size of a FetchRows request for n IDs.
func RowsReqFrameBytes(n int) int64 {
	return frameHeaderBytes + 4 + 4*int64(n)
}

// RowsRespFrameBytes returns the framed size of a FetchRows response: n rows
// of dim at prec plus n labels.
func RowsRespFrameBytes(n, dim int, prec half.Precision) int64 {
	return frameHeaderBytes + 4 + int64(n)*prec.RowBytes(dim) + 4*int64(n)
}

// NeighReqFrameBytes returns the framed size of a FetchNeighbors request.
func NeighReqFrameBytes(n int) int64 {
	return frameHeaderBytes + 4 + 4*int64(n)
}

// NeighRespFrameBytes returns the framed size of a FetchNeighbors response
// for n IDs whose adjacency totals total entries.
func NeighRespFrameBytes(n int, total int64) int64 {
	return frameHeaderBytes + 4 + 4*int64(n) + 4*total
}

// appendHeader appends a frame header for a payload of payloadLen bytes.
func appendHeader(b []byte, typ byte, payloadLen int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(payloadLen)+1)
	return append(b, typ)
}

// appendHello appends a complete hello frame.
func appendHello(b []byte, h Hello) []byte {
	b = appendHeader(b, msgHello, helloPayloadBytes)
	b = binary.LittleEndian.AppendUint16(b, h.Proto)
	b = binary.LittleEndian.AppendUint32(b, uint32(h.Dim))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.NumNodes))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.NumEdges))
	b = append(b, byte(h.Precision))
	b = binary.LittleEndian.AppendUint64(b, h.GraphVersion)
	return b
}

func decodeHello(payload []byte) (Hello, error) {
	if len(payload) != helloPayloadBytes {
		return Hello{}, errf(ErrProto, "handshake", nil, "hello payload %d bytes, want %d", len(payload), helloPayloadBytes)
	}
	var h Hello
	h.Proto = binary.LittleEndian.Uint16(payload[0:])
	h.Dim = int(binary.LittleEndian.Uint32(payload[2:]))
	h.NumNodes = int(binary.LittleEndian.Uint64(payload[6:]))
	h.NumEdges = int64(binary.LittleEndian.Uint64(payload[14:]))
	h.Precision = half.Precision(payload[22])
	h.GraphVersion = binary.LittleEndian.Uint64(payload[23:])
	if !h.Precision.Valid() {
		return Hello{}, errf(ErrProto, "handshake", nil, "invalid precision byte %d", payload[22])
	}
	return h, nil
}

// appendIDsFrame appends a rowsReq or neighReq frame.
func appendIDsFrame(b []byte, typ byte, ids []int32) []byte {
	b = appendHeader(b, typ, 4+4*len(ids))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	return b
}

// decodeIDs parses a rowsReq/neighReq payload, reusing ids' capacity.
func decodeIDs(payload []byte, ids []int32) ([]int32, error) {
	if len(payload) < 4 {
		return nil, errf(ErrProto, "request", nil, "truncated ID list header")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if len(payload) != 4+4*n {
		return nil, errf(ErrProto, "request", nil, "ID list claims %d entries in %d payload bytes", n, len(payload))
	}
	if cap(ids) < n {
		ids = make([]int32, n)
	}
	ids = ids[:n]
	for i := range ids {
		ids[i] = int32(binary.LittleEndian.Uint32(payload[4+4*i:]))
	}
	return ids, nil
}

// appendRowsResp appends a rowsResp frame carrying rows at its precision.
func appendRowsResp(b []byte, rows *Rows) []byte {
	n, dim := rows.N, rows.Dim
	b = appendHeader(b, msgRowsResp, int(RowsRespFrameBytes(n, dim, rows.Prec))-frameHeaderBytes)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	switch rows.Prec {
	case half.FP32:
		for _, f := range rows.F[:n*dim] {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(f))
		}
	case half.Int8:
		for _, q := range rows.Q[:n*dim] {
			b = append(b, byte(q))
		}
		for _, s := range rows.Scales[:n] {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(s))
		}
	default:
		for _, h := range rows.H[:n*dim] {
			b = binary.LittleEndian.AppendUint16(b, uint16(h))
		}
	}
	for _, l := range rows.Labels[:n] {
		b = binary.LittleEndian.AppendUint32(b, uint32(l))
	}
	return b
}

// decodeRowsResp parses a rowsResp payload into dst, which the caller sizes
// expectations for: n rows of dim at prec (known from the request and the
// handshake). A count or size disagreement is a typed proto error.
func decodeRowsResp(payload []byte, dst *Rows, n, dim int, prec half.Precision) error {
	want := int(RowsRespFrameBytes(n, dim, prec)) - frameHeaderBytes
	if len(payload) != want {
		return errf(ErrProto, "fetch_rows", nil, "response payload %d bytes, want %d", len(payload), want)
	}
	if got := int(binary.LittleEndian.Uint32(payload)); got != n {
		return errf(ErrProto, "fetch_rows", nil, "response carries %d rows, requested %d", got, n)
	}
	dst.Ensure(n, dim, prec)
	p := payload[4:]
	switch prec {
	case half.FP32:
		for i := range dst.F[:n*dim] {
			dst.F[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
		}
		p = p[4*n*dim:]
	case half.Int8:
		for i := range dst.Q[:n*dim] {
			dst.Q[i] = int8(p[i])
		}
		p = p[n*dim:]
		for i := range dst.Scales[:n] {
			dst.Scales[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
		}
		p = p[4*n:]
	default:
		for i := range dst.H[:n*dim] {
			dst.H[i] = half.Float16(binary.LittleEndian.Uint16(p[2*i:]))
		}
		p = p[2*n*dim:]
	}
	dst.Labels = dst.Labels[:0]
	for i := 0; i < n; i++ {
		dst.Labels = append(dst.Labels, int32(binary.LittleEndian.Uint32(p[4*i:])))
	}
	return nil
}

// appendNeighResp appends a neighResp frame for n requested IDs.
func appendNeighResp(b []byte, adj *Adjacency) []byte {
	n := len(adj.Ptr) - 1
	total := int64(len(adj.Adj))
	b = appendHeader(b, msgNeighResp, int(NeighRespFrameBytes(n, total))-frameHeaderBytes)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for i := 0; i < n; i++ {
		b = binary.LittleEndian.AppendUint32(b, uint32(adj.Ptr[i+1]-adj.Ptr[i]))
	}
	for _, u := range adj.Adj {
		b = binary.LittleEndian.AppendUint32(b, uint32(u))
	}
	return b
}

// decodeNeighResp parses a neighResp payload into dst for n requested IDs.
func decodeNeighResp(payload []byte, dst *Adjacency, n int) error {
	if len(payload) < 4+4*n {
		return errf(ErrProto, "fetch_neighbors", nil, "response payload %d bytes, want ≥%d", len(payload), 4+4*n)
	}
	if got := int(binary.LittleEndian.Uint32(payload)); got != n {
		return errf(ErrProto, "fetch_neighbors", nil, "response carries %d adjacency lists, requested %d", got, n)
	}
	dst.Reset()
	if cap(dst.Ptr) < n+1 {
		dst.Ptr = make([]int64, 0, n+1)
	}
	dst.Ptr = append(dst.Ptr, 0)
	var total int64
	degs := payload[4:]
	for i := 0; i < n; i++ {
		total += int64(binary.LittleEndian.Uint32(degs[4*i:]))
		dst.Ptr = append(dst.Ptr, total)
	}
	if int64(len(payload)) != 4+4*int64(n)+4*total {
		return errf(ErrProto, "fetch_neighbors", nil, "adjacency claims %d entries in %d payload bytes", total, len(payload))
	}
	if int64(cap(dst.Adj)) < total {
		dst.Adj = make([]int32, 0, total)
	}
	body := degs[4*n:]
	for i := int64(0); i < total; i++ {
		dst.Adj = append(dst.Adj, int32(binary.LittleEndian.Uint32(body[4*i:])))
	}
	return nil
}

// appendErrResp appends an errResp frame carrying a typed rejection.
func appendErrResp(b []byte, kind ErrKind, msg string) []byte {
	b = appendHeader(b, msgError, 1+4+len(msg))
	b = append(b, byte(kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(msg)))
	return append(b, msg...)
}

func decodeErrResp(payload []byte) (ErrKind, string, error) {
	if len(payload) < 5 {
		return 0, "", errf(ErrProto, "response", nil, "truncated error frame")
	}
	kind := ErrKind(payload[0])
	msgLen := int(binary.LittleEndian.Uint32(payload[1:]))
	if len(payload) != 5+msgLen {
		return 0, "", errf(ErrProto, "response", nil, "error frame claims %d message bytes in %d payload", msgLen, len(payload))
	}
	return kind, string(payload[5:]), nil
}

// readFrame reads one complete frame, reusing scratch's capacity for the
// payload. It returns the message type, the payload (aliasing the returned
// scratch), and the possibly-grown scratch for the next call. Truncation and
// oversized lengths are typed proto errors; raw I/O failures pass through
// for the caller's transient classification.
func readFrame(r io.Reader, scratch []byte) (byte, []byte, []byte, error) {
	var hdr [frameHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, scratch, err
	}
	frameLen := binary.LittleEndian.Uint32(hdr[:4])
	if frameLen == 0 {
		return 0, nil, scratch, errf(ErrProto, "frame", nil, "zero-length frame")
	}
	if frameLen > maxFramePayload {
		return 0, nil, scratch, errf(ErrProto, "frame", nil, "frame length %d exceeds limit %d", frameLen, maxFramePayload)
	}
	if _, err := io.ReadFull(r, hdr[4:5]); err != nil {
		return 0, nil, scratch, truncated(err)
	}
	typ := hdr[4]
	payloadLen := int(frameLen) - 1
	if cap(scratch) < payloadLen {
		scratch = make([]byte, payloadLen)
	}
	scratch = scratch[:payloadLen]
	if _, err := io.ReadFull(r, scratch); err != nil {
		return 0, nil, scratch, truncated(err)
	}
	return typ, scratch, scratch, nil
}

// truncated maps a mid-frame EOF to ErrUnexpectedEOF so readers see one
// consistent "stream died inside a frame" cause.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
