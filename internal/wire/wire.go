// Package wire implements the compact framed binary protocol of the privreg
// serving edge: the hot ingest/estimate path spoken over persistent TCP
// connections, negotiated alongside (not instead of) the HTTP/JSON API.
//
// The JSON edge tops out parsing documents — at serving batch sizes the
// network layer costs more than the DP mechanisms behind it. This protocol
// removes that ceiling: observations travel as length-prefixed, CRC-checked
// frames of raw little-endian float64 rows, so the server-side decode is a
// bounds check plus a bit-pattern copy straight into estimator-owned buffers
// (no intermediate row-slice structures, no text parsing), and one connection
// carries any number of streams (frames for different streams interleave
// freely and coalesce in the server's group-commit ingester).
//
// # Framing
//
// Every frame has the same envelope (all integers little-endian, the
// convention internal/codec established for the checkpoint formats):
//
//	u32  n        byte length of what follows, excluding the trailing CRC
//	u8   type     frame type (the first of the n bytes)
//	...  payload  n-1 bytes
//	u32  crc      CRC-32 (IEEE) over the n bytes (type + payload)
//
// A connection opens with a Hello/HelloAck version negotiation and then
// carries request frames (Observe, Estimate) upstream and response frames
// (Ack, EstimateAck, Nack) downstream. Requests carry a client-chosen u64
// request ID echoed by the matching response, so responses may be awaited
// out of order and many requests can be in flight at once. Error frames are
// connection-fatal in both directions: the sender reports why and closes.
//
// # Backpressure
//
// The server applies the same admission control as the HTTP edge, expressed
// as Nack frames instead of status codes: NackQueueFull carries the same
// Retry-After derivation as the HTTP 429 (EWMA drain-rate share plus
// jitter), NackDraining is the 503 analogue, NackStreamFull the 409, and
// NackBadRequest the 400. A drain finishes every queued observation and
// flushes its acks before the connection closes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Magic opens every Hello payload; it is what lets a server reject a stray
// HTTP request (or any other plaintext) aimed at the wire port with a clean
// error instead of a confusing CRC failure deep into the stream.
const Magic = "PRWB"

// Version is the protocol version this package speaks. Hello carries the
// client's supported range; the server picks the highest version both sides
// share and echoes it in HelloAck.
//
// Version 3 (the membership protocol) added the Ping/PingReq/Gossip frames
// the SWIM failure detector probes and piggybacks membership state with, the
// Replicate frame that ships applied batches to warm standbys between
// segment snapshots, the FlagOffset conditional-ingest extension to Observe
// (an expected stream offset, making retries exactly-once across an owner
// crash), and the NackConflict code that rejects a mismatched offset.
//
// Version 2 (the cluster protocol) added a flags byte to Observe and
// Estimate payloads (FlagForwarded), a build-version string to HelloAck, and
// the Ring/RingAck/SegmentPush frames the cluster layer routes and migrates
// with. Older peers are not supported — the protocol is repo-internal and
// both ends ship together.
const Version = 3

// MaxFrame bounds the encoded size of a single frame (type + payload). It
// exists so a corrupt or adversarial length prefix cannot make a reader
// allocate gigabytes before the CRC check has a chance to reject the frame.
// At dim 512 it still leaves room for batches of thousands of rows.
const MaxFrame = 1 << 24

// FrameType identifies a frame. The zero value is invalid so an all-zeros
// buffer never parses.
type FrameType uint8

// Frame types. Hello/HelloAck appear exactly once per connection, in that
// order; everything after is requests upstream, responses downstream.
const (
	FrameHello       FrameType = 1  // client → server: magic + supported version range
	FrameHelloAck    FrameType = 2  // server → client: chosen version + pool shape
	FrameObserve     FrameType = 3  // client → server: batched rows for one stream
	FrameEstimate    FrameType = 4  // client → server: estimate request
	FrameAck         FrameType = 5  // server → client: observe accepted and applied
	FrameEstimateAck FrameType = 6  // server → client: estimate vector
	FrameNack        FrameType = 7  // server → client: request rejected (retryable or not)
	FrameError       FrameType = 8  // either direction: fatal protocol error, then close
	FrameRing        FrameType = 9  // client → server: request the current ring
	FrameRingAck     FrameType = 10 // server → client: versioned ring state (JSON blob)
	FrameSegmentPush FrameType = 11 // node → node: one stream's segment file (handoff/replication)
	FramePing        FrameType = 12 // node → node: SWIM direct probe (carries piggybacked membership)
	FramePingReq     FrameType = 13 // node → node: SWIM indirect probe request (probe target for me)
	FrameGossip      FrameType = 14 // node → node: membership table; also the ack for Ping/PingReq
	FrameReplicate   FrameType = 15 // owner → standby: one applied batch, buffered for promotion replay
)

// Request flags, carried by Observe and Estimate after the request ID.
const (
	// FlagForwarded marks a request relayed by a peer's forwarding proxy:
	// the receiver must serve it locally even if its ring says another node
	// owns the stream, which is what keeps a ring-version skew window from
	// bouncing a request between nodes forever.
	FlagForwarded uint8 = 1 << 0
	// FlagOffset marks an Observe that carries an expected stream offset (a
	// u64 after the flags byte): apply only if the stream currently holds
	// exactly that many points, ack without applying if the batch is already
	// in (an exact duplicate of a retried request), and reject with
	// NackConflict otherwise. This is what makes client retries exactly-once
	// across an owner crash and standby promotion.
	FlagOffset uint8 = 1 << 1
	// FlagOutcome marks an Estimate that carries an outcome index (a u16
	// after the stream ID) selecting one regression of a multi-outcome pool.
	// Absent, the request reads outcome 0, which is what keeps single-outcome
	// clients byte-identical on the wire.
	FlagOutcome uint8 = 1 << 2
)

// maxOutcomes bounds the outcome columns a multi-outcome frame may carry; it
// exists so a hostile frame cannot claim a row shape that makes the server
// size absurd buffers.
const maxOutcomes = 1 << 12

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameHelloAck:
		return "hello-ack"
	case FrameObserve:
		return "observe"
	case FrameEstimate:
		return "estimate"
	case FrameAck:
		return "ack"
	case FrameEstimateAck:
		return "estimate-ack"
	case FrameNack:
		return "nack"
	case FrameError:
		return "error"
	case FrameRing:
		return "ring"
	case FrameRingAck:
		return "ring-ack"
	case FrameSegmentPush:
		return "segment-push"
	case FramePing:
		return "ping"
	case FramePingReq:
		return "ping-req"
	case FrameGossip:
		return "gossip"
	case FrameReplicate:
		return "replicate"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// NackCode says why a request was rejected and whether retrying can help.
type NackCode uint8

// Nack codes, mirroring the HTTP edge's status mapping.
const (
	NackQueueFull     NackCode = 1 // retryable: stream ingest queue full (HTTP 429)
	NackDraining      NackCode = 2 // server shutting down (HTTP 503)
	NackStreamFull    NackCode = 3 // horizon overrun, batch rejected whole (HTTP 409)
	NackUnknownStream NackCode = 4 // estimate for a stream that never observed (HTTP 404)
	NackBadRequest    NackCode = 5 // malformed request (HTTP 400)
	NackNotOwner      NackCode = 6 // retryable: node neither owns the stream nor could forward it
	NackImporting     NackCode = 7 // retryable: node is importing handoff segments for this stream's shard
	NackConflict      NackCode = 8 // conditional observe offset mismatch (HTTP 409); not retryable
)

func (c NackCode) String() string {
	switch c {
	case NackQueueFull:
		return "queue-full"
	case NackDraining:
		return "draining"
	case NackStreamFull:
		return "stream-full"
	case NackUnknownStream:
		return "unknown-stream"
	case NackBadRequest:
		return "bad-request"
	case NackNotOwner:
		return "not-owner"
	case NackImporting:
		return "importing"
	case NackConflict:
		return "conflict"
	default:
		return fmt.Sprintf("nack(%d)", uint8(c))
	}
}

// Code returns the snake_case machine-readable identifier for the code, the
// form both transports expose: the HTTP error envelope's "code" field and
// the wire Nack carry the same taxonomy, one name per Nack constant.
func (c NackCode) Code() string {
	switch c {
	case NackQueueFull:
		return "queue_full"
	case NackDraining:
		return "draining"
	case NackStreamFull:
		return "stream_full"
	case NackUnknownStream:
		return "unknown_stream"
	case NackBadRequest:
		return "bad_request"
	case NackNotOwner:
		return "not_owner"
	case NackImporting:
		return "importing"
	case NackConflict:
		return "conflict"
	default:
		return fmt.Sprintf("nack_%d", uint8(c))
	}
}

// Retryable reports whether a request rejected with this code can succeed on
// retry: queue pressure drains, ring skew converges, and import windows
// close; the rest are permanent for the same request.
func (c NackCode) Retryable() bool {
	switch c {
	case NackQueueFull, NackNotOwner, NackImporting:
		return true
	default:
		return false
	}
}

// Framing errors. ErrFrameTooLarge and ErrBadCRC are connection-fatal: after
// either, the stream position can no longer be trusted.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds size bound")
	ErrBadCRC        = errors.New("wire: frame CRC mismatch")
	ErrTruncated     = errors.New("wire: truncated frame")
)

// maxIDLen bounds stream IDs on the wire; IDs are routing keys, not
// documents.
const maxIDLen = 1 << 10

// frameOverhead is the envelope cost around a payload: u32 length, u8 type,
// u32 CRC.
const frameOverhead = 4 + 1 + 4

// crcOf is the per-frame checksum: CRC-32 (IEEE) over type byte + payload,
// the same polynomial the checkpoint segment files use. It catches the
// failure modes networks and kernels actually produce — truncation, bit
// flips, interleaved writes — not adversaries.
func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// Builder assembles frames into a reusable buffer. The zero value is ready;
// a Builder is not safe for concurrent use. Typical use appends one or more
// frames with Begin/…/Finish and writes Bytes() to the connection in a
// single write.
type Builder struct {
	buf   []byte
	start int // offset of the current frame's length prefix
}

// Reset discards buffered frames, keeping capacity.
func (b *Builder) Reset() { b.buf = b.buf[:0] }

// Bytes returns every finished frame appended since the last Reset.
func (b *Builder) Bytes() []byte { return b.buf }

// Len returns the buffered byte count.
func (b *Builder) Len() int { return len(b.buf) }

// Begin opens a frame of the given type. Each Begin must be matched by
// Finish before the next Begin.
func (b *Builder) Begin(t FrameType) {
	b.start = len(b.buf)
	b.buf = append(b.buf, 0, 0, 0, 0) // length backpatched by Finish
	b.buf = append(b.buf, byte(t))
}

// Finish closes the frame opened by Begin: backpatches the length prefix and
// appends the CRC.
func (b *Builder) Finish() {
	body := b.buf[b.start+4:] // type + payload
	binary.LittleEndian.PutUint32(b.buf[b.start:], uint32(len(body)))
	b.buf = binary.LittleEndian.AppendUint32(b.buf, crcOf(body))
}

// U8 appends one byte to the open frame's payload.
func (b *Builder) U8(v uint8) { b.buf = append(b.buf, v) }

// U16 appends a little-endian uint16.
func (b *Builder) U16(v uint16) { b.buf = binary.LittleEndian.AppendUint16(b.buf, v) }

// U32 appends a little-endian uint32.
func (b *Builder) U32(v uint32) { b.buf = binary.LittleEndian.AppendUint32(b.buf, v) }

// U64 appends a little-endian uint64.
func (b *Builder) U64(v uint64) { b.buf = binary.LittleEndian.AppendUint64(b.buf, v) }

// F64s appends a run of float64s with no length prefix (the frame header
// carries the counts).
func (b *Builder) F64s(vs []float64) {
	// Appending bit patterns in a tight loop is the whole encode path: no
	// reflection, no text, no per-element allocation.
	for _, v := range vs {
		b.buf = binary.LittleEndian.AppendUint64(b.buf, math.Float64bits(v))
	}
}

// Str16 appends a u16 length-prefixed string (stream IDs, error messages).
func (b *Builder) Str16(s string) {
	b.U16(uint16(len(s)))
	b.buf = append(b.buf, s...)
}

// Payload is a sticky-error cursor over one frame's payload, the decode-side
// mirror of Builder (and of internal/codec.Reader: first error wins, later
// reads are no-ops, so decoders read straight-line and check once).
type Payload struct {
	buf []byte
	off int
	err error
}

// NewPayload wraps a payload slice for decoding.
func NewPayload(b []byte) Payload { return Payload{buf: b} }

// Err returns the first decode error, or nil.
func (p *Payload) Err() error { return p.err }

// Remaining returns the number of unread bytes.
func (p *Payload) Remaining() int { return len(p.buf) - p.off }

func (p *Payload) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

func (p *Payload) take(n int) []byte {
	if p.err != nil {
		return nil
	}
	if n < 0 || len(p.buf)-p.off < n {
		p.fail(ErrTruncated)
		return nil
	}
	b := p.buf[p.off : p.off+n]
	p.off += n
	return b
}

// U8 reads one byte.
func (p *Payload) U8() uint8 {
	b := p.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (p *Payload) U16() uint16 {
	b := p.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (p *Payload) U32() uint32 {
	b := p.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (p *Payload) U64() uint64 {
	b := p.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Bytes16 reads a u16 length-prefixed byte slice, aliasing the payload (no
// copy); the slice is only valid until the frame buffer is reused.
func (p *Payload) Bytes16() []byte {
	n := int(p.U16())
	return p.take(n)
}

// Str16 reads a u16 length-prefixed string (copies, so it outlives the
// frame buffer).
func (p *Payload) Str16() string { return string(p.Bytes16()) }

// F64sInto fills dst from consecutive bit patterns. It is the hot decode
// primitive: one bounds check, then a straight copy of len(dst) words with
// no per-element error handling.
func (p *Payload) F64sInto(dst []float64) {
	b := p.take(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Finish returns the first decode error, or an error if unread payload
// remains (the frame and the decoder disagree about the format).
func (p *Payload) Finish() error {
	if p.err != nil {
		return p.err
	}
	if p.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing payload bytes", p.Remaining())
	}
	return nil
}

// --- Typed frame payloads -------------------------------------------------

// Hello is the client's opening frame.
type Hello struct {
	// MinVersion and MaxVersion delimit the protocol versions the client
	// speaks (inclusive).
	MinVersion, MaxVersion uint16
}

// AppendHello appends a Hello frame.
func AppendHello(b *Builder, h Hello) {
	b.Begin(FrameHello)
	b.buf = append(b.buf, Magic...)
	b.U16(h.MinVersion)
	b.U16(h.MaxVersion)
	b.Finish()
}

// ParseHello decodes a Hello payload.
func ParseHello(payload []byte) (Hello, error) {
	var h Hello
	p := NewPayload(payload)
	if magic := p.take(len(Magic)); magic != nil && string(magic) != Magic {
		return h, fmt.Errorf("wire: not a privreg wire connection (bad magic %q)", magic)
	}
	h.MinVersion = p.U16()
	h.MaxVersion = p.U16()
	if err := p.Finish(); err != nil {
		return h, err
	}
	if h.MinVersion > h.MaxVersion {
		return h, fmt.Errorf("wire: hello version range [%d,%d] is empty", h.MinVersion, h.MaxVersion)
	}
	return h, nil
}

// HelloAck is the server's reply: the negotiated version plus the pool shape
// a client needs to frame observations (row width) and sanity-check that it
// is talking to the pool it thinks it is.
type HelloAck struct {
	Version   uint16
	Dim       uint32
	Horizon   uint64
	Mechanism string
	// Server is the serving binary's build identifier (ldflags-injected),
	// so clients and peers can detect mixed-version clusters mid-upgrade.
	Server string
	// Outcomes is the pool's outcome-column count (k responses per row); 1
	// for every single-outcome pool. It trails the frame so acks from older
	// servers (which omit it) still parse.
	Outcomes uint16
}

// AppendHelloAck appends a HelloAck frame.
func AppendHelloAck(b *Builder, a HelloAck) {
	b.Begin(FrameHelloAck)
	b.U16(a.Version)
	b.U32(a.Dim)
	b.U64(a.Horizon)
	b.Str16(a.Mechanism)
	b.Str16(a.Server)
	if a.Outcomes == 0 {
		a.Outcomes = 1
	}
	b.U16(a.Outcomes)
	b.Finish()
}

// ParseHelloAck decodes a HelloAck payload.
func ParseHelloAck(payload []byte) (HelloAck, error) {
	var a HelloAck
	p := NewPayload(payload)
	a.Version = p.U16()
	a.Dim = p.U32()
	a.Horizon = p.U64()
	a.Mechanism = p.Str16()
	a.Server = p.Str16()
	a.Outcomes = 1
	if p.Err() == nil && p.Remaining() > 0 {
		a.Outcomes = p.U16()
	}
	if err := p.Finish(); err != nil {
		return a, err
	}
	if a.Outcomes == 0 || a.Outcomes > maxOutcomes {
		return a, fmt.Errorf("wire: hello-ack outcome count %d outside [1,%d]", a.Outcomes, maxOutcomes)
	}
	return a, nil
}

// ObserveHeader describes an Observe frame before its row data is decoded:
// everything needed for admission control (stream, row count) without
// touching the floats. Rows is validated against the payload length, so a
// header that parses cleanly guarantees the row region is exactly
// Rows×(Dim+Outcomes) float64s. The outcome width is not framed explicitly:
// it is whatever exactly fills the payload after Rows×Dim covariates, which
// keeps the k=1 encoding bit-identical to the pre-multi-outcome format.
type ObserveHeader struct {
	ReqID uint64
	// Flags carries request flags (FlagForwarded, FlagOffset).
	Flags uint8
	// From is the expected stream offset when FlagOffset is set, -1
	// otherwise (unconditional apply).
	From int64
	// ID aliases the frame buffer (valid until the next read); the server
	// interns it per connection rather than allocating a string per frame.
	ID   []byte
	Rows int
	// Outcomes is the response-column count carried per row (k ≥ 1),
	// inferred from the payload length.
	Outcomes int
	rows     []byte // raw little-endian row region: Rows×Dim xs then Rows×Outcomes ys
	dim      int
}

// Forwarded reports whether a peer's proxy relayed this request.
func (h *ObserveHeader) Forwarded() bool { return h.Flags&FlagForwarded != 0 }

// AppendObserve appends an Observe frame: reqID, flags, stream ID, and rows
// in row-major order — xs is Rows×dim values, ys is Rows×k values for any
// k ≥ 1 (k=1 reproduces the single-outcome encoding byte for byte). from is
// the expected stream offset for conditional ingest, or -1 for unconditional
// (the FlagOffset bit is set or cleared to match).
func AppendObserve(b *Builder, reqID uint64, flags uint8, id string, from int64, dim int, xs, ys []float64) {
	b.Begin(FrameObserve)
	b.U64(reqID)
	if from >= 0 {
		flags |= FlagOffset
	} else {
		flags &^= FlagOffset
	}
	b.U8(flags)
	if from >= 0 {
		b.U64(uint64(from))
	}
	b.Str16(id)
	rows := len(ys)
	if dim > 0 {
		rows = len(xs) / dim
	}
	b.U32(uint32(rows))
	b.F64s(xs)
	b.F64s(ys)
	b.Finish()
}

// ParseObserveHeader decodes an Observe payload against the connection's
// negotiated dimension. The returned header aliases the payload.
func ParseObserveHeader(payload []byte, dim int) (ObserveHeader, error) {
	var h ObserveHeader
	p := NewPayload(payload)
	h.ReqID = p.U64()
	h.Flags = p.U8()
	h.From = -1
	if h.Flags&FlagOffset != 0 {
		from := p.U64()
		if from > math.MaxInt64 {
			return h, fmt.Errorf("wire: observe offset %d overflows", from)
		}
		h.From = int64(from)
	}
	h.ID = p.Bytes16()
	rows := p.U32()
	if p.Err() != nil {
		return h, p.Err()
	}
	if len(h.ID) == 0 || len(h.ID) > maxIDLen {
		return h, fmt.Errorf("wire: observe stream id length %d outside [1,%d]", len(h.ID), maxIDLen)
	}
	// Bound rows by what the remaining payload could possibly hold before
	// multiplying, so a hostile count cannot overflow the size check.
	if rows == 0 || uint64(rows) > uint64(p.Remaining())/8 {
		return h, fmt.Errorf("wire: observe row count %d inconsistent with %d payload bytes", rows, p.Remaining())
	}
	h.Rows = int(rows)
	h.dim = dim
	k, err := rowOutcomes(p.Remaining(), h.Rows, dim, "observe")
	if err != nil {
		return h, err
	}
	h.Outcomes = k
	h.rows = p.take(p.Remaining())
	return h, p.Finish()
}

// rowOutcomes infers the outcome-column count of a row region: the payload
// must hold exactly Rows×(dim+k) float64s for some 1 ≤ k ≤ maxOutcomes, and
// k is whatever makes that fit exact. A single-outcome frame (the historic
// format) infers k=1; anything that does not divide out cleanly is rejected
// before a single float is touched.
func rowOutcomes(remaining, rows, dim int, frame string) (int, error) {
	if remaining%8 == 0 && rows > 0 {
		if floats := remaining / 8; floats%rows == 0 {
			if k := floats/rows - dim; k >= 1 && k <= maxOutcomes {
				return k, nil
			}
		}
	}
	return 0, fmt.Errorf("wire: %s frame carries %d row bytes, want %d rows × (dim %d + k responses) for some k in [1,%d]", frame, remaining, rows, dim, maxOutcomes)
}

// DecodeRows fills xs (Rows×dim values, row-major) and ys (Rows×Outcomes
// values) straight from the frame's bit patterns. The caller supplies the
// destination — in the server that is the pooled flat buffer handed to the
// estimator, which is what makes the ingest path copy-once end to end.
func (h *ObserveHeader) DecodeRows(xs, ys []float64) error {
	if len(xs) != h.Rows*h.dim || len(ys) != h.Rows*h.Outcomes {
		return fmt.Errorf("wire: DecodeRows destination %d×%d does not match frame %d×%d", len(ys), len(xs), h.Rows*h.Outcomes, h.Rows*h.dim)
	}
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(h.rows[8*i:]))
	}
	off := 8 * len(xs)
	for i := range ys {
		ys[i] = math.Float64frombits(binary.LittleEndian.Uint64(h.rows[off+8*i:]))
	}
	return nil
}

// EstimateReq is an Estimate frame: a request ID, flags, a stream, and the
// outcome index to read (0 unless FlagOutcome is set).
type EstimateReq struct {
	ReqID   uint64
	Flags   uint8
	ID      []byte // aliases the frame buffer
	Outcome int
}

// Forwarded reports whether a peer's proxy relayed this request.
func (e *EstimateReq) Forwarded() bool { return e.Flags&FlagForwarded != 0 }

// AppendEstimate appends an Estimate frame. A non-zero outcome selects one
// regression of a multi-outcome pool (the FlagOutcome bit is set or cleared
// to match); outcome 0 keeps the historic single-outcome encoding.
func AppendEstimate(b *Builder, reqID uint64, flags uint8, id string, outcome int) {
	b.Begin(FrameEstimate)
	b.U64(reqID)
	if outcome > 0 {
		flags |= FlagOutcome
	} else {
		flags &^= FlagOutcome
	}
	b.U8(flags)
	b.Str16(id)
	if outcome > 0 {
		b.U16(uint16(outcome))
	}
	b.Finish()
}

// ParseEstimate decodes an Estimate payload.
func ParseEstimate(payload []byte) (EstimateReq, error) {
	var e EstimateReq
	p := NewPayload(payload)
	e.ReqID = p.U64()
	e.Flags = p.U8()
	e.ID = p.Bytes16()
	if e.Flags&FlagOutcome != 0 {
		e.Outcome = int(p.U16())
	}
	if err := p.Finish(); err != nil {
		return e, err
	}
	if len(e.ID) == 0 || len(e.ID) > maxIDLen {
		return e, fmt.Errorf("wire: estimate stream id length %d outside [1,%d]", len(e.ID), maxIDLen)
	}
	if e.Outcome >= maxOutcomes {
		return e, fmt.Errorf("wire: estimate outcome index %d outside [0,%d)", e.Outcome, maxOutcomes)
	}
	return e, nil
}

// Ack confirms an Observe: the points are applied to the private state (the
// wire analogue of the HTTP 200 — ack-after-apply, never ack-then-apply).
type Ack struct {
	ReqID   uint64
	Applied uint32 // points applied by this request
	Len     uint64 // stream length after applying
}

// AppendAck appends an Ack frame.
func AppendAck(b *Builder, a Ack) {
	b.Begin(FrameAck)
	b.U64(a.ReqID)
	b.U32(a.Applied)
	b.U64(a.Len)
	b.Finish()
}

// ParseAck decodes an Ack payload.
func ParseAck(payload []byte) (Ack, error) {
	var a Ack
	p := NewPayload(payload)
	a.ReqID = p.U64()
	a.Applied = p.U32()
	a.Len = p.U64()
	return a, p.Finish()
}

// EstimateAck carries an estimate vector back to the client.
type EstimateAck struct {
	ReqID    uint64
	Len      uint64
	Estimate []float64
}

// AppendEstimateAck appends an EstimateAck frame.
func AppendEstimateAck(b *Builder, a EstimateAck) {
	b.Begin(FrameEstimateAck)
	b.U64(a.ReqID)
	b.U64(a.Len)
	b.U32(uint32(len(a.Estimate)))
	b.F64s(a.Estimate)
	b.Finish()
}

// ParseEstimateAck decodes an EstimateAck payload.
func ParseEstimateAck(payload []byte) (EstimateAck, error) {
	var a EstimateAck
	p := NewPayload(payload)
	a.ReqID = p.U64()
	a.Len = p.U64()
	n := p.U32()
	if p.Err() != nil {
		return a, p.Err()
	}
	if uint64(n) != uint64(p.Remaining())/8 || p.Remaining()%8 != 0 {
		return a, fmt.Errorf("wire: estimate-ack dimension %d inconsistent with %d payload bytes", n, p.Remaining())
	}
	a.Estimate = make([]float64, n)
	p.F64sInto(a.Estimate)
	return a, p.Finish()
}

// Nack rejects one request, retryably or not.
type Nack struct {
	ReqID      uint64
	Code       NackCode
	RetryAfter uint16 // seconds; meaningful only for NackQueueFull
	Msg        string
}

// AppendNack appends a Nack frame.
func AppendNack(b *Builder, n Nack) {
	b.Begin(FrameNack)
	b.U64(n.ReqID)
	b.U8(uint8(n.Code))
	b.U16(n.RetryAfter)
	b.Str16(n.Msg)
	b.Finish()
}

// ParseNack decodes a Nack payload.
func ParseNack(payload []byte) (Nack, error) {
	var n Nack
	p := NewPayload(payload)
	n.ReqID = p.U64()
	n.Code = NackCode(p.U8())
	n.RetryAfter = p.U16()
	n.Msg = p.Str16()
	return n, p.Finish()
}

// AppendError appends a connection-fatal Error frame.
func AppendError(b *Builder, msg string) {
	b.Begin(FrameError)
	b.Str16(msg)
	b.Finish()
}

// ParseError decodes an Error payload into a Go error.
func ParseError(payload []byte) error {
	p := NewPayload(payload)
	msg := p.Str16()
	if err := p.Finish(); err != nil {
		return err
	}
	return fmt.Errorf("wire: peer error: %s", msg)
}

// --- Cluster frames -------------------------------------------------------

// RingReq asks the server for its current cluster ring.
type RingReq struct {
	ReqID uint64
}

// AppendRingReq appends a Ring request frame.
func AppendRingReq(b *Builder, reqID uint64) {
	b.Begin(FrameRing)
	b.U64(reqID)
	b.Finish()
}

// ParseRingReq decodes a Ring request payload.
func ParseRingReq(payload []byte) (RingReq, error) {
	var r RingReq
	p := NewPayload(payload)
	r.ReqID = p.U64()
	return r, p.Finish()
}

// RingAck carries the server's ring state: a version (so clients can skip
// decoding rings they already hold) and the same JSON document GET /v1/ring
// serves. Ring exchange is rare and tiny next to observe traffic, so reusing
// the JSON codec keeps exactly one serialized ring format in the system.
type RingAck struct {
	ReqID   uint64
	Version uint64
	Ring    []byte // aliases the frame buffer
}

// AppendRingAck appends a RingAck frame.
func AppendRingAck(b *Builder, a RingAck) {
	b.Begin(FrameRingAck)
	b.U64(a.ReqID)
	b.U64(a.Version)
	b.U32(uint32(len(a.Ring)))
	b.buf = append(b.buf, a.Ring...)
	b.Finish()
}

// ParseRingAck decodes a RingAck payload. The Ring slice aliases the payload.
func ParseRingAck(payload []byte) (RingAck, error) {
	var a RingAck
	p := NewPayload(payload)
	a.ReqID = p.U64()
	a.Version = p.U64()
	n := p.U32()
	if p.Err() != nil {
		return a, p.Err()
	}
	a.Ring = p.take(int(n))
	return a, p.Finish()
}

// SegmentPush ships one stream's checkpoint segment to a peer, during live
// handoff (ownership moving) or warm-standby replication (a copy for the
// stream's successor). Data is a complete segment file as written by the
// spill store — CRC-framed, self-describing — and Length is the stream's
// point count at export time, which the importer needs because segment
// files deliberately do not duplicate it. Answered with Ack (imported) or
// Nack (rejected; NackImporting/NackQueueFull are retryable).
//
// A segment must fit in MaxFrame along with its envelope; the spill store's
// segments are estimator state (KBs to a few MBs), far under the 16 MiB
// bound.
type SegmentPush struct {
	ReqID   uint64
	RingV   uint64 // sender's ring version, for skew diagnostics
	Length  uint64 // stream length the segment encodes
	Standby bool   // true for replication copies, false for handoff
	Data    []byte // aliases the frame buffer
}

// AppendSegmentPush appends a SegmentPush frame.
func AppendSegmentPush(b *Builder, sp SegmentPush) {
	b.Begin(FrameSegmentPush)
	b.U64(sp.ReqID)
	b.U64(sp.RingV)
	b.U64(sp.Length)
	if sp.Standby {
		b.U8(1)
	} else {
		b.U8(0)
	}
	b.U32(uint32(len(sp.Data)))
	b.buf = append(b.buf, sp.Data...)
	b.Finish()
}

// ParseSegmentPush decodes a SegmentPush payload. Data aliases the payload.
func ParseSegmentPush(payload []byte) (SegmentPush, error) {
	var sp SegmentPush
	p := NewPayload(payload)
	sp.ReqID = p.U64()
	sp.RingV = p.U64()
	sp.Length = p.U64()
	sp.Standby = p.U8() != 0
	n := p.U32()
	if p.Err() != nil {
		return sp, p.Err()
	}
	sp.Data = p.take(int(n))
	if err := p.Finish(); err != nil {
		return sp, err
	}
	if len(sp.Data) == 0 {
		return sp, fmt.Errorf("wire: segment-push carries no segment data")
	}
	return sp, nil
}

// --- Membership frames ----------------------------------------------------
//
// The SWIM failure detector speaks three frames over the same wire port the
// data path uses. Every probe piggybacks the sender's full membership table
// and every ack carries the receiver's back, so membership state spreads
// epidemically with no dedicated gossip timer — the probe schedule IS the
// gossip schedule. Tables are tiny (a handful of members, ~20 bytes each),
// so "full table" beats delta bookkeeping at this cluster scale.

// Member is one row of a gossiped membership table: who, what the sender
// believes about them, and the incarnation that belief is anchored to.
// States are the detector's (alive/suspect/dead/left); the wire carries them
// as opaque u8s so the package does not depend on the detector.
type Member struct {
	ID          string
	State       uint8
	Incarnation uint64
}

// maxMembers bounds a gossiped table; membership is a per-node cluster
// roster, not a data plane.
const maxMembers = 1 << 12

func appendMembers(b *Builder, members []Member) {
	b.U16(uint16(len(members)))
	for _, m := range members {
		b.Str16(m.ID)
		b.U8(m.State)
		b.U64(m.Incarnation)
	}
}

func parseMembers(p *Payload) ([]Member, error) {
	n := int(p.U16())
	if p.Err() != nil {
		return nil, p.Err()
	}
	if n > maxMembers {
		return nil, fmt.Errorf("wire: gossip table of %d members exceeds bound %d", n, maxMembers)
	}
	members := make([]Member, 0, n)
	for i := 0; i < n; i++ {
		var m Member
		m.ID = p.Str16()
		m.State = p.U8()
		m.Incarnation = p.U64()
		if p.Err() != nil {
			return nil, p.Err()
		}
		if m.ID == "" || len(m.ID) > maxIDLen {
			return nil, fmt.Errorf("wire: gossip member id length %d outside [1,%d]", len(m.ID), maxIDLen)
		}
		members = append(members, m)
	}
	return members, nil
}

// Ping is a direct SWIM probe: "are you alive?", plus the sender's
// membership table. Answered with a Gossip frame (OK=1).
type Ping struct {
	ReqID   uint64
	From    string // sender's node ID
	Members []Member
}

// AppendPing appends a Ping frame.
func AppendPing(b *Builder, pg Ping) {
	b.Begin(FramePing)
	b.U64(pg.ReqID)
	b.Str16(pg.From)
	appendMembers(b, pg.Members)
	b.Finish()
}

// ParsePing decodes a Ping payload.
func ParsePing(payload []byte) (Ping, error) {
	var pg Ping
	p := NewPayload(payload)
	pg.ReqID = p.U64()
	pg.From = p.Str16()
	var err error
	if pg.Members, err = parseMembers(&p); err != nil {
		return pg, err
	}
	return pg, p.Finish()
}

// PingReq is an indirect SWIM probe: "probe Target on my behalf". The
// receiver probes Target itself and answers with a Gossip frame whose OK
// flag reports whether Target acked — a second, independent network path to
// the target before the sender escalates to suspicion.
type PingReq struct {
	ReqID   uint64
	From    string // originator's node ID
	Target  string // node to probe
	Members []Member
}

// AppendPingReq appends a PingReq frame.
func AppendPingReq(b *Builder, pr PingReq) {
	b.Begin(FramePingReq)
	b.U64(pr.ReqID)
	b.Str16(pr.From)
	b.Str16(pr.Target)
	appendMembers(b, pr.Members)
	b.Finish()
}

// ParsePingReq decodes a PingReq payload.
func ParsePingReq(payload []byte) (PingReq, error) {
	var pr PingReq
	p := NewPayload(payload)
	pr.ReqID = p.U64()
	pr.From = p.Str16()
	pr.Target = p.Str16()
	var err error
	if pr.Members, err = parseMembers(&p); err != nil {
		return pr, err
	}
	if err := p.Finish(); err != nil {
		return pr, err
	}
	if pr.Target == "" || len(pr.Target) > maxIDLen {
		return pr, fmt.Errorf("wire: ping-req target id length %d outside [1,%d]", len(pr.Target), maxIDLen)
	}
	return pr, nil
}

// Gossip is the membership response frame: the receiver's table, plus an OK
// flag that makes it double as the ack for Ping (always 1) and PingReq (1
// iff the proxied probe reached the target).
type Gossip struct {
	ReqID   uint64
	OK      bool
	From    string // responder's node ID
	Members []Member
}

// AppendGossip appends a Gossip frame.
func AppendGossip(b *Builder, g Gossip) {
	b.Begin(FrameGossip)
	b.U64(g.ReqID)
	if g.OK {
		b.U8(1)
	} else {
		b.U8(0)
	}
	b.Str16(g.From)
	appendMembers(b, g.Members)
	b.Finish()
}

// ParseGossip decodes a Gossip payload.
func ParseGossip(payload []byte) (Gossip, error) {
	var g Gossip
	p := NewPayload(payload)
	g.ReqID = p.U64()
	g.OK = p.U8() != 0
	g.From = p.Str16()
	var err error
	if g.Members, err = parseMembers(&p); err != nil {
		return g, err
	}
	return g, p.Finish()
}

// Replicate ships one applied batch from a stream's owner to a warm standby,
// right after the owner applies it and before the client's ack. The standby
// buffers (Start, rows) pairs per stream and replays them in order on
// promotion, which is what shrinks the unclean-death data-loss window from
// one segment-replication interval toward zero. Start is the stream's length
// before the batch, so a standby can detect (and skip or reject) gaps and
// duplicates exactly like conditional Observe does. Answered with Ack
// (buffered) or Nack.
type Replicate struct {
	ReqID uint64
	RingV uint64 // sender's ring version; stale senders are rejected
	Start uint64 // stream length before this batch
	ID    []byte // aliases the frame buffer
	Rows  int
	// Outcomes is the response-column count per row, inferred from the
	// payload length exactly like ObserveHeader.Outcomes.
	Outcomes int
	rows     []byte
	dim      int
}

// AppendReplicate appends a Replicate frame; xs is Rows×dim values
// (row-major), ys is Rows×k values for any k ≥ 1. dim sizes the rows; pass
// len(ys) rows via a zero dim only in the k=1 legacy shape.
func AppendReplicate(b *Builder, reqID, ringV uint64, id string, start uint64, dim int, xs, ys []float64) {
	b.Begin(FrameReplicate)
	b.U64(reqID)
	b.U64(ringV)
	b.U64(start)
	b.Str16(id)
	rows := len(ys)
	if dim > 0 {
		rows = len(xs) / dim
	}
	b.U32(uint32(rows))
	b.F64s(xs)
	b.F64s(ys)
	b.Finish()
}

// ParseReplicate decodes a Replicate payload against the connection's
// negotiated dimension. The returned value aliases the payload.
func ParseReplicate(payload []byte, dim int) (Replicate, error) {
	var r Replicate
	p := NewPayload(payload)
	r.ReqID = p.U64()
	r.RingV = p.U64()
	r.Start = p.U64()
	r.ID = p.Bytes16()
	rows := p.U32()
	if p.Err() != nil {
		return r, p.Err()
	}
	if len(r.ID) == 0 || len(r.ID) > maxIDLen {
		return r, fmt.Errorf("wire: replicate stream id length %d outside [1,%d]", len(r.ID), maxIDLen)
	}
	if rows == 0 || uint64(rows) > uint64(p.Remaining())/8 {
		return r, fmt.Errorf("wire: replicate row count %d inconsistent with %d payload bytes", rows, p.Remaining())
	}
	r.Rows = int(rows)
	r.dim = dim
	k, err := rowOutcomes(p.Remaining(), r.Rows, dim, "replicate")
	if err != nil {
		return r, err
	}
	r.Outcomes = k
	r.rows = p.take(p.Remaining())
	return r, p.Finish()
}

// DecodeRows fills xs (Rows×dim values, row-major) and ys (Rows×Outcomes
// values) from the frame's bit patterns, exactly like
// ObserveHeader.DecodeRows.
func (r *Replicate) DecodeRows(xs, ys []float64) error {
	if len(xs) != r.Rows*r.dim || len(ys) != r.Rows*r.Outcomes {
		return fmt.Errorf("wire: DecodeRows destination %d×%d does not match frame %d×%d", len(ys), len(xs), r.Rows*r.Outcomes, r.Rows*r.dim)
	}
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.rows[8*i:]))
	}
	off := 8 * len(xs)
	for i := range ys {
		ys[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.rows[off+8*i:]))
	}
	return nil
}
