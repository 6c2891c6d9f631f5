package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// TestFrameRoundTrip encodes every frame type and decodes it back through
// both the slice decoder and the io Reader.
func TestFrameRoundTrip(t *testing.T) {
	var b Builder
	AppendHello(&b, Hello{MinVersion: 1, MaxVersion: 3})
	AppendHelloAck(&b, HelloAck{Version: 1, Dim: 8, Horizon: 512, Mechanism: "gradient", Server: "v1.2.3"})
	xs := []float64{0.5, -0.25, math.Inf(1), math.Copysign(0, -1), 1e-300, 42, -7, 0.125}
	ys := []float64{0.75, -0.5}
	AppendObserve(&b, 7, FlagForwarded, "stream-a", -1, 4, xs, ys)
	AppendEstimate(&b, 8, 0, "stream-a", 0)
	AppendAck(&b, Ack{ReqID: 7, Applied: 2, Len: 40})
	AppendEstimateAck(&b, EstimateAck{ReqID: 8, Len: 40, Estimate: []float64{1, -2, 0.5, 0.25}})
	AppendNack(&b, Nack{ReqID: 9, Code: NackQueueFull, RetryAfter: 3, Msg: "queue full"})
	AppendError(&b, "fatal")

	check := func(t *testing.T, next func() (FrameType, []byte, error)) {
		t.Helper()
		ft, payload, err := next()
		if err != nil || ft != FrameHello {
			t.Fatalf("frame 1: type %v err %v", ft, err)
		}
		h, err := ParseHello(payload)
		if err != nil || h.MinVersion != 1 || h.MaxVersion != 3 {
			t.Fatalf("hello: %+v err %v", h, err)
		}
		ft, payload, err = next()
		if err != nil || ft != FrameHelloAck {
			t.Fatalf("frame 2: type %v err %v", ft, err)
		}
		ha, err := ParseHelloAck(payload)
		if err != nil || ha.Dim != 8 || ha.Horizon != 512 || ha.Mechanism != "gradient" || ha.Server != "v1.2.3" {
			t.Fatalf("hello-ack: %+v err %v", ha, err)
		}
		ft, payload, err = next()
		if err != nil || ft != FrameObserve {
			t.Fatalf("frame 3: type %v err %v", ft, err)
		}
		oh, err := ParseObserveHeader(payload, 4)
		if err != nil {
			t.Fatalf("observe header: %v", err)
		}
		if oh.ReqID != 7 || string(oh.ID) != "stream-a" || oh.Rows != 2 || !oh.Forwarded() {
			t.Fatalf("observe header: %+v", oh)
		}
		gotXs := make([]float64, 8)
		gotYs := make([]float64, 2)
		if err := oh.DecodeRows(gotXs, gotYs); err != nil {
			t.Fatalf("decode rows: %v", err)
		}
		for i, v := range xs {
			if math.Float64bits(gotXs[i]) != math.Float64bits(v) {
				t.Fatalf("x[%d]: got %v want %v (bit-exact)", i, gotXs[i], v)
			}
		}
		for i, v := range ys {
			if math.Float64bits(gotYs[i]) != math.Float64bits(v) {
				t.Fatalf("y[%d]: got %v want %v", i, gotYs[i], v)
			}
		}
		ft, payload, err = next()
		if err != nil || ft != FrameEstimate {
			t.Fatalf("frame 4: type %v err %v", ft, err)
		}
		er, err := ParseEstimate(payload)
		if err != nil || er.ReqID != 8 || string(er.ID) != "stream-a" || er.Forwarded() {
			t.Fatalf("estimate: %+v err %v", er, err)
		}
		ft, payload, err = next()
		if err != nil || ft != FrameAck {
			t.Fatalf("frame 5: type %v err %v", ft, err)
		}
		ack, err := ParseAck(payload)
		if err != nil || ack.ReqID != 7 || ack.Applied != 2 || ack.Len != 40 {
			t.Fatalf("ack: %+v err %v", ack, err)
		}
		ft, payload, err = next()
		if err != nil || ft != FrameEstimateAck {
			t.Fatalf("frame 6: type %v err %v", ft, err)
		}
		ea, err := ParseEstimateAck(payload)
		if err != nil || ea.ReqID != 8 || ea.Len != 40 || len(ea.Estimate) != 4 || ea.Estimate[1] != -2 {
			t.Fatalf("estimate-ack: %+v err %v", ea, err)
		}
		ft, payload, err = next()
		if err != nil || ft != FrameNack {
			t.Fatalf("frame 7: type %v err %v", ft, err)
		}
		nk, err := ParseNack(payload)
		if err != nil || nk.Code != NackQueueFull || nk.RetryAfter != 3 || nk.Msg != "queue full" {
			t.Fatalf("nack: %+v err %v", nk, err)
		}
		ft, payload, err = next()
		if err != nil || ft != FrameError {
			t.Fatalf("frame 8: type %v err %v", ft, err)
		}
		if perr := ParseError(payload); perr == nil || perr.Error() != "wire: peer error: fatal" {
			t.Fatalf("error frame: %v", perr)
		}
	}

	t.Run("slice", func(t *testing.T) {
		rest := b.Bytes()
		check(t, func() (FrameType, []byte, error) {
			ft, payload, n, err := DecodeFrame(rest)
			rest = rest[n:]
			return ft, payload, err
		})
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes", len(rest))
		}
	})
	t.Run("reader", func(t *testing.T) {
		r := NewReader(bytes.NewReader(b.Bytes()))
		check(t, r.Next)
		if _, _, err := r.Next(); err != io.EOF {
			t.Fatalf("expected EOF, got %v", err)
		}
	})
}

// TestCorruptFrames checks that damaged envelopes produce the right
// connection-fatal errors rather than garbage parses.
func TestCorruptFrames(t *testing.T) {
	var b Builder
	AppendAck(&b, Ack{ReqID: 1, Applied: 2, Len: 3})
	good := b.Bytes()

	t.Run("bit flip", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[7] ^= 0x40 // payload byte
		if _, _, _, err := DecodeFrame(bad); !errors.Is(err, ErrBadCRC) {
			t.Fatalf("want ErrBadCRC, got %v", err)
		}
	})
	t.Run("crc flip", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-1] ^= 1
		if _, _, _, err := DecodeFrame(bad); !errors.Is(err, ErrBadCRC) {
			t.Fatalf("want ErrBadCRC, got %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(good); cut++ {
			if _, _, _, err := DecodeFrame(good[:cut]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d: want ErrTruncated, got %v", cut, err)
			}
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(bad, MaxFrame+1)
		if _, _, _, err := DecodeFrame(bad); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("want ErrFrameTooLarge, got %v", err)
		}
		r := NewReader(bytes.NewReader(bad))
		if _, _, err := r.Next(); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("reader: want ErrFrameTooLarge, got %v", err)
		}
	})
	t.Run("zero length", func(t *testing.T) {
		bad := []byte{0, 0, 0, 0, 1, 2, 3, 4}
		if _, _, _, err := DecodeFrame(bad); !errors.Is(err, ErrTruncated) {
			t.Fatalf("want ErrTruncated, got %v", err)
		}
	})
}

// TestObserveHeaderValidation exercises the admission checks a hostile or
// buggy client can trip: row counts inconsistent with the payload, absurd
// IDs, dimension mismatches.
func TestObserveHeaderValidation(t *testing.T) {
	var b Builder
	AppendObserve(&b, 1, 0, "s", -1, 4, make([]float64, 8), make([]float64, 2))
	_, payload, _, err := DecodeFrame(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := ParseObserveHeader(payload, 4); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	// Same frame against a different negotiated dimension must fail.
	if _, err := ParseObserveHeader(payload, 8); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	// Corrupt the row count (offset: reqID 8 + flags 1 + idLen 2 + id 1 = 12).
	bad := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint32(bad[12:], 1<<31)
	if _, err := ParseObserveHeader(bad, 4); err == nil {
		t.Fatal("hostile row count accepted")
	}
	binary.LittleEndian.PutUint32(bad[12:], 0)
	if _, err := ParseObserveHeader(bad, 4); err == nil {
		t.Fatal("zero row count accepted")
	}
	// Empty stream ID.
	var b2 Builder
	AppendObserve(&b2, 1, 0, "", -1, 4, make([]float64, 4), make([]float64, 1))
	_, payload2, _, err := DecodeFrame(b2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseObserveHeader(payload2, 4); err == nil {
		t.Fatal("empty stream id accepted")
	}
}

// TestHelloValidation checks the magic and version-range guards.
func TestHelloValidation(t *testing.T) {
	var b Builder
	AppendHello(&b, Hello{MinVersion: 2, MaxVersion: 1})
	_, payload, _, err := DecodeFrame(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseHello(payload); err == nil {
		t.Fatal("empty version range accepted")
	}
	if _, err := ParseHello([]byte("HTTP/1.1 200 OK")); err == nil {
		t.Fatal("plaintext accepted as hello")
	}
}

// TestClusterFrameRoundTrip covers the version-2 cluster frames: ring
// request/reply and segment push.
func TestClusterFrameRoundTrip(t *testing.T) {
	var b Builder
	AppendRingReq(&b, 11)
	ringJSON := []byte(`{"version":3,"replicas":2,"vnodes":64,"nodes":[{"id":"a","addr":"x"}]}`)
	AppendRingAck(&b, RingAck{ReqID: 11, Version: 3, Ring: ringJSON})
	seg := []byte("PRSG-fake-segment-bytes")
	AppendSegmentPush(&b, SegmentPush{ReqID: 12, RingV: 3, Length: 77, Standby: true, Data: seg})

	rest := b.Bytes()
	ft, payload, n, err := DecodeFrame(rest)
	if err != nil || ft != FrameRing {
		t.Fatalf("ring req: type %v err %v", ft, err)
	}
	rr, err := ParseRingReq(payload)
	if err != nil || rr.ReqID != 11 {
		t.Fatalf("ring req: %+v err %v", rr, err)
	}
	rest = rest[n:]

	ft, payload, n, err = DecodeFrame(rest)
	if err != nil || ft != FrameRingAck {
		t.Fatalf("ring ack: type %v err %v", ft, err)
	}
	ra, err := ParseRingAck(payload)
	if err != nil || ra.ReqID != 11 || ra.Version != 3 || !bytes.Equal(ra.Ring, ringJSON) {
		t.Fatalf("ring ack: %+v err %v", ra, err)
	}
	rest = rest[n:]

	ft, payload, _, err = DecodeFrame(rest)
	if err != nil || ft != FrameSegmentPush {
		t.Fatalf("segment push: type %v err %v", ft, err)
	}
	sp, err := ParseSegmentPush(payload)
	if err != nil || sp.ReqID != 12 || sp.RingV != 3 || sp.Length != 77 || !sp.Standby || !bytes.Equal(sp.Data, seg) {
		t.Fatalf("segment push: %+v err %v", sp, err)
	}

	// An empty segment push must be rejected at parse time.
	var b2 Builder
	AppendSegmentPush(&b2, SegmentPush{ReqID: 13})
	_, payload2, _, err := DecodeFrame(b2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSegmentPush(payload2); err == nil {
		t.Fatal("empty segment push accepted")
	}
}

// TestReaderReusesBuffer pins the zero-steady-state-allocation property of
// the frame reader: decoding a second frame of equal size must not allocate
// a fresh buffer.
func TestReaderReusesBuffer(t *testing.T) {
	var b Builder
	for i := 0; i < 64; i++ {
		AppendAck(&b, Ack{ReqID: uint64(i)})
	}
	r := NewReader(bytes.NewReader(b.Bytes()))
	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(32, func() {
		if _, _, err := r.Next(); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Reader.Next allocates %.1f per frame; want 0", allocs)
	}
}

// TestRowsRoundTripSpecialBits runs NaN payloads, signed zeros, subnormals
// and infinities through an Observe and a Replicate frame and through
// Builder.F64s/Payload.F64sInto, requiring every bit back.
func TestRowsRoundTripSpecialBits(t *testing.T) {
	vals := []float64{
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff0000000000abc),
		math.Float64frombits(0xfff8dead0000beef), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.Float64frombits(0x000fffffffffffff),
		math.Inf(1), math.Inf(-1), 1.5, -2.25, math.MaxFloat64,
	}
	const dim = 3
	xs, ys := vals[:9], vals[9:] // 3 rows of 3 covariates, one response each
	same := func(label string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d]: got %x, want %x", label, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	var b Builder
	AppendObserve(&b, 1, 0, "s", -1, dim, xs, ys)
	AppendReplicate(&b, 2, 1, "s", 0, dim, xs, ys)
	b.Begin(FrameEstimateAck)
	b.F64s(vals)
	b.Finish()
	frames := b.Bytes()
	next := func() []byte {
		t.Helper()
		_, payload, n, err := DecodeFrame(frames)
		if err != nil {
			t.Fatal(err)
		}
		frames = frames[n:]
		return payload
	}
	gx, gy := make([]float64, len(xs)), make([]float64, len(ys))
	oh, err := ParseObserveHeader(next(), dim)
	if err != nil {
		t.Fatal(err)
	}
	if err := oh.DecodeRows(gx, gy); err != nil {
		t.Fatal(err)
	}
	same("observe xs", gx, xs)
	same("observe ys", gy, ys)
	rep, err := ParseReplicate(next(), dim)
	if err != nil {
		t.Fatal(err)
	}
	kept := rep.RowBlock.Clone()
	clear(rep.data) // the clone must not alias the frame buffer
	clear(gx)
	clear(gy)
	if err := kept.DecodeRows(gx, gy); err != nil {
		t.Fatal(err)
	}
	same("replicate xs", gx, xs)
	same("replicate ys", gy, ys)
	p := NewPayload(next())
	got := make([]float64, len(vals))
	p.F64sInto(got)
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	same("payload", got, vals)
}
