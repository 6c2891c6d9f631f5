package server

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"privreg/internal/wire"
)

// startWire attaches a wire listener to the server on an ephemeral port and
// returns its address.
func startWire(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := s.ServeWire(ln); err != nil && !errors.Is(err, errDraining) {
			t.Errorf("ServeWire: %v", err)
		}
	}()
	return ln.Addr().String()
}

func dialWire(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestWireHandshake checks the negotiated pool shape reaches the client.
func TestWireHandshake(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	c := dialWire(t, startWire(t, s))
	if c.Dim != 4 || c.Horizon != 64 || c.Mechanism != "gradient" {
		t.Fatalf("handshake: dim %d horizon %d mechanism %q", c.Dim, c.Horizon, c.Mechanism)
	}
}

// TestWireBitIdenticalToHTTP is the core correctness property of the wire
// front-end: the same points pushed over binary frames and over HTTP/JSON
// land the two servers' pools in bit-identical states.
func TestWireBitIdenticalToHTTP(t *testing.T) {
	sWire, _ := newTestServer(t, Config{})
	_, tsHTTP := newTestServer(t, Config{})
	c := dialWire(t, startWire(t, sWire))

	const streams, per, batch = 3, 24, 5
	for sid := 0; sid < streams; sid++ {
		id := fmt.Sprintf("s%d", sid)
		for lo := 0; lo < per; lo += batch {
			hi := lo + batch
			if hi > per {
				hi = per
			}
			xs := make([][]float64, 0, hi-lo)
			ys := make([]float64, 0, hi-lo)
			flat := make([]float64, 0, (hi-lo)*4)
			for i := lo; i < hi; i++ {
				x, y := point(i+sid, 4)
				xs = append(xs, x)
				ys = append(ys, y)
				flat = append(flat, x...)
			}
			applied, n, err := c.Observe(id, flat, ys)
			if err != nil {
				t.Fatalf("wire observe %s[%d:%d]: %v", id, lo, hi, err)
			}
			if applied != hi-lo || n != hi {
				t.Fatalf("wire ack: applied %d len %d, want %d %d", applied, n, hi-lo, hi)
			}
			if code, body := doJSON(t, "POST", tsHTTP.URL+"/v1/streams/"+id+"/observe", observeBody(xs, ys), nil); code != http.StatusOK {
				t.Fatalf("http observe: %d %s", code, body)
			}
		}
	}
	for sid := 0; sid < streams; sid++ {
		id := fmt.Sprintf("s%d", sid)
		est, n, err := c.Estimate(id)
		if err != nil {
			t.Fatalf("wire estimate %s: %v", id, err)
		}
		var httpEst estimateResponse
		if code, body := doJSON(t, "GET", tsHTTP.URL+"/v1/streams/"+id+"/estimate", nil, &httpEst); code != http.StatusOK {
			t.Fatalf("http estimate: %d %s", code, body)
		}
		if n != httpEst.Len || len(est) != len(httpEst.Estimate) {
			t.Fatalf("%s: wire len %d est %d coords, http len %d est %d coords", id, n, len(est), httpEst.Len, len(httpEst.Estimate))
		}
		for k := range est {
			if est[k] != httpEst.Estimate[k] {
				t.Fatalf("%s estimate[%d]: wire %v != http %v (not bit-identical)", id, k, est[k], httpEst.Estimate[k])
			}
		}
	}
}

// TestWirePipelinedConcurrentStreams hammers one connection from many
// goroutines to exercise the multiplexed request/response matching and the
// per-stream apply ordering.
func TestWirePipelinedConcurrentStreams(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	c := dialWire(t, startWire(t, s))

	const streams, per = 8, 16
	var wg sync.WaitGroup
	errc := make(chan error, streams)
	for sid := 0; sid < streams; sid++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			id := fmt.Sprintf("c%d", sid)
			for i := 0; i < per; i++ {
				x, y := point(i, 4)
				if _, _, err := c.Observe(id, x, []float64{y}); err != nil {
					errc <- fmt.Errorf("%s point %d: %w", id, i, err)
					return
				}
			}
		}(sid)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for sid := 0; sid < streams; sid++ {
		if n, _ := s.pool.LenOK(fmt.Sprintf("c%d", sid)); n != per {
			t.Fatalf("stream c%d has %d points, want %d", sid, n, per)
		}
	}
}

// TestWireNackMapping checks each rejection class surfaces as the documented
// nack code — the binary twin of the HTTP status mapping.
func TestWireNackMapping(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxQueuedPoints: 8})
	c := dialWire(t, startWire(t, s))

	// Unknown stream on estimate.
	if _, _, err := c.Estimate("ghost"); err == nil {
		t.Fatal("estimate of unknown stream succeeded")
	} else {
		var ne *wire.NackError
		if !errors.As(err, &ne) || ne.Code != wire.NackUnknownStream {
			t.Fatalf("unknown stream: %v", err)
		}
	}

	// Oversized batch: permanent bad-request, like HTTP 413.
	big := make([]float64, 9*4)
	if _, _, err := c.Observe("s", big, make([]float64, 9)); err == nil {
		t.Fatal("oversized batch accepted")
	} else {
		var ne *wire.NackError
		if !errors.As(err, &ne) || ne.Code != wire.NackBadRequest || ne.Retryable() {
			t.Fatalf("oversized batch: %v", err)
		}
	}

	// Horizon overrun → stream-full, matching HTTP 409.
	xs := make([]float64, 64*4)
	ys := make([]float64, 64)
	hi := 0
	for lo := 0; lo < 64; lo = hi {
		hi = lo + 8
		if _, _, err := c.Observe("full", xs[lo*4:hi*4], ys[lo:hi]); err != nil {
			t.Fatalf("filling horizon [%d:%d]: %v", lo, hi, err)
		}
	}
	x, y := point(0, 4)
	if _, _, err := c.Observe("full", x, []float64{y}); err == nil {
		t.Fatal("over-horizon observe accepted")
	} else {
		var ne *wire.NackError
		if !errors.As(err, &ne) || ne.Code != wire.NackStreamFull {
			t.Fatalf("horizon overrun: %v", err)
		}
	}
}

// TestWireNonFiniteRowRejected checks that a frame carrying a NaN, which the
// binary codec passes through bit for bit, gets a permanent bad_request nack
// and leaves the stream as it was: same length, same estimate bits.
func TestWireNonFiniteRowRejected(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	c := dialWire(t, startWire(t, s))
	x, y := point(1, 4)
	if _, _, err := c.Observe("s", x, []float64{y}); err != nil {
		t.Fatal(err)
	}
	before, n, err := c.Estimate("s")
	if err != nil {
		t.Fatal(err)
	}
	bad := []float64{math.NaN(), 0, 0, 0}
	var ne *wire.NackError
	if _, _, err := c.Observe("s", bad, []float64{y}); !errors.As(err, &ne) || ne.Code != wire.NackBadRequest || ne.Retryable() {
		t.Fatalf("NaN row: got %v, want a bad_request nack", err)
	}
	after, m, err := c.Estimate("s")
	if err != nil {
		t.Fatal(err)
	}
	if m != n || len(after) != len(before) {
		t.Fatalf("after the rejected row: len %d with %d coords, want %d with %d", m, len(after), n, len(before))
	}
	for i := range before {
		if math.Float64bits(after[i]) != math.Float64bits(before[i]) {
			t.Fatalf("estimate[%d] moved from %v to %v", i, before[i], after[i])
		}
	}
}

// TestWireDrainFlushesPendingAcks checks the shutdown contract: observes
// in flight when Close starts are applied, their acks are written before the
// connection closes, and later observes on a fresh connection are refused.
func TestWireDrainFlushesPendingAcks(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	addr := startWire(t, s)
	c := dialWire(t, addr)

	const inflight = 6
	type result struct {
		applied int
		err     error
	}
	results := make(chan result, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x, y := point(i, 4)
			applied, _, err := c.Observe(fmt.Sprintf("d%d", i), x, []float64{y})
			results <- result{applied, err}
		}(i)
	}
	// Let the observes reach the server, then drain concurrently.
	time.Sleep(10 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(results)
	for r := range results {
		// Every in-flight request must resolve: either its ack was flushed
		// during drain (applied) or it was refused as draining — never a
		// broken-connection limbo with the verdict lost.
		if r.err != nil {
			var ne *wire.NackError
			if !errors.As(r.err, &ne) || ne.Code != wire.NackDraining {
				t.Fatalf("in-flight observe: %v", r.err)
			}
		} else if r.applied != 1 {
			t.Fatalf("in-flight observe acked %d points", r.applied)
		}
	}

	if _, err := wire.Dial(addr, 500*time.Millisecond); err == nil {
		t.Fatal("dial after drain succeeded")
	}
}

// TestWireProtocolViolationGetsErrorFrame checks a malformed frame is
// answered with an error frame and a closed connection rather than a silent
// hangup or a poisoned pool.
func TestWireProtocolViolationGetsErrorFrame(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	addr := startWire(t, s)

	conn, errd := net.Dial("tcp", addr)
	if errd != nil {
		t.Fatal(errd)
	}
	defer conn.Close()
	var b wire.Builder
	wire.AppendHello(&b, wire.Hello{MinVersion: wire.Version, MaxVersion: wire.Version})
	if _, errw := conn.Write(b.Bytes()); errw != nil {
		t.Fatal(errw)
	}
	r := wire.NewReader(conn)
	if ft, _, errn := r.Next(); errn != nil || ft != wire.FrameHelloAck {
		t.Fatalf("handshake: %v %v", ft, errn)
	}
	// A frame whose CRC is wrong.
	b.Reset()
	wire.AppendEstimate(&b, 1, 0, "s", 0)
	bad := b.Bytes()
	bad[len(bad)-1] ^= 0xff
	if _, errw := conn.Write(bad); errw != nil {
		t.Fatal(errw)
	}
	ft, payload, errn := r.Next()
	if errn != nil || ft != wire.FrameError {
		t.Fatalf("want error frame, got %v %v", ft, errn)
	}
	if perr := wire.ParseError(payload); perr == nil {
		t.Fatal("empty error frame")
	}
	if _, _, errn := r.Next(); errn == nil {
		t.Fatal("connection still alive after protocol violation")
	}
}
