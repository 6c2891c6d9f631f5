package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"privreg/internal/version"
	"privreg/internal/wire"
)

// The wire front-end serves the binary framed protocol of internal/wire on a
// second listener, against the same pool, ingester, and metrics as the HTTP
// handlers. It exists because at serving batch sizes the estimator work per
// point is a few hundred nanoseconds, and HTTP/JSON spends far more than that
// per point on parsing and allocation: the edge, not the mechanism, bounds
// throughput. The wire path decodes rows straight into pooled flat buffers
// that flow through ingester.submit and Pool.ObserveFlat into the estimator
// with no per-row allocation, and pipelines frames per connection — the read
// loop keeps decoding while earlier batches drain, with responses written in
// frame order by a per-connection ack pump.
//
// Backpressure and drain semantics are identical to HTTP by construction:
// both front-ends call the same ingester, so a queue-full rejection carries
// the same Retry-After derivation (NackQueueFull.RetryAfter == the 429's
// Retry-After header) and draining yields NackDraining where HTTP yields 503.
// On Close, connections stop reading, queued batches are applied, every
// pending ack is flushed, and only then do connections close.

// wireHandshakeTimeout bounds how long a fresh connection may take to send
// its Hello (and a client may wait for the HelloAck).
const wireHandshakeTimeout = 10 * time.Second

// wirePipelineDepth is the per-connection bound on decoded-but-unacked
// frames. It is the pipelining window: deep enough to keep the ingester busy
// under bursts, shallow enough that one connection cannot hold unbounded
// decoded batches in memory (the read loop blocks when the pump falls
// behind).
const wirePipelineDepth = 256

// wireBufs is one observe frame's decoded payload: flat row-major covariates
// plus responses, pooled so a steady-state connection ingests with zero
// per-frame heap traffic. The buffers are handed to the ingester inside an
// ingestReq and must not be recycled until the request's done channel fires.
type wireBufs struct {
	xs []float64
	ys []float64
}

var wireBufPool = sync.Pool{New: func() any { return new(wireBufs) }}

// wireCompletion is one response the ack pump owes the client, in frame
// order. Exactly one of the cases is set: a pending observe (req != nil,
// resolved by waiting on req.done), a pre-resolved result (admission
// rejections, estimates — err/est/length already final), or a fatal protocol
// error (fatal != nil: write an error frame and tear the connection down).
type wireCompletion struct {
	reqID uint64
	route string // metrics route ("wire_observe", "wire_estimate")
	start time.Time

	req  *ingestReq // pending observe; await req.done
	id   string     // stream id (for post-apply Len)
	bufs *wireBufs  // recycled after the ack is written

	err     error     // pre-resolved verdict (or admission error for req == nil)
	est     []float64 // estimate payload
	length  int       // stream length for pre-resolved acks
	applied int       // points applied, for pre-resolved acks (forwarded observes, segment imports)

	ringAck *wire.RingAck // ring request answer (cluster)
	gossip  *wire.Gossip  // membership answer (ping / ping-req)

	fatal error // connection-fatal: written as an error frame, then close
}

// ServeWire accepts connections on ln and serves the binary wire protocol
// until the listener closes (Close closes it). Each connection is handled by
// its own goroutine pair (read loop + ack pump); Close waits for all of them
// after the drain, so every acked frame is applied and every applied frame is
// acked before the final checkpoint.
func (s *Server) ServeWire(ln net.Listener) error {
	s.wireMu.Lock()
	if s.draining() {
		s.wireMu.Unlock()
		ln.Close()
		return errDraining
	}
	s.wireListeners = append(s.wireListeners, ln)
	s.wireMu.Unlock()
	s.logf("serving wire protocol on %s", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining() {
				return nil
			}
			return err
		}
		s.wireMu.Lock()
		if s.draining() {
			s.wireMu.Unlock()
			conn.Close()
			return nil
		}
		if s.wireConns == nil {
			s.wireConns = make(map[net.Conn]struct{})
		}
		s.wireConns[conn] = struct{}{}
		s.wireWg.Add(1)
		s.wireMu.Unlock()
		go s.handleWireConn(conn)
	}
}

// ListenAndServeWire listens on addr and calls ServeWire.
func (s *Server) ListenAndServeWire(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.ServeWire(ln)
}

// closeWireIntake stops the wire front-end's intake: listeners close (no new
// connections) and established connections stop reading, so their read loops
// exit after the frame in progress and no new work enters the ingester. The
// ack pumps stay alive — the drain that follows completes every submitted
// request, and the pumps flush those acks before the connections close.
func (s *Server) closeWireIntake() {
	s.wireMu.Lock()
	for _, ln := range s.wireListeners {
		ln.Close()
	}
	s.wireListeners = nil
	for conn := range s.wireConns {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.CloseRead()
		} else {
			_ = conn.SetReadDeadline(time.Now())
		}
	}
	s.wireMu.Unlock()
}

// dropWireConn unregisters a finished connection.
func (s *Server) dropWireConn(conn net.Conn) {
	s.wireMu.Lock()
	delete(s.wireConns, conn)
	s.wireMu.Unlock()
}

// handleWireConn runs one connection: handshake, then a read loop decoding
// and submitting frames while the ack pump resolves and writes responses in
// frame order.
func (s *Server) handleWireConn(conn net.Conn) {
	defer s.wireWg.Done()
	defer s.dropWireConn(conn)
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}

	r := wire.NewReader(conn)
	bw := bufio.NewWriterSize(conn, 64<<10)

	if err := s.wireHandshake(conn, r, bw); err != nil {
		conn.Close()
		return
	}

	completions := make(chan *wireCompletion, wirePipelineDepth)
	var pumpWg sync.WaitGroup
	pumpWg.Add(1)
	go func() {
		defer pumpWg.Done()
		s.wireAckPump(conn, bw, completions)
	}()

	s.wireReadLoop(r, completions)
	close(completions)
	// The pump drains every owed ack (the ingester's drain guarantees pending
	// req.done channels fire), flushes, and only then does the connection
	// close fully.
	pumpWg.Wait()
	conn.Close()
}

// wireHandshake performs the Hello/HelloAck exchange. Anything other than a
// well-formed, version-compatible Hello gets an error frame and a dead
// connection — the handshake is the one place the server writes before the
// pump exists.
func (s *Server) wireHandshake(conn net.Conn, r *wire.Reader, bw *bufio.Writer) error {
	_ = conn.SetReadDeadline(time.Now().Add(wireHandshakeTimeout))
	t, payload, err := r.Next()
	if err != nil {
		return err
	}
	_ = conn.SetReadDeadline(time.Time{})
	var b wire.Builder
	if t != wire.FrameHello {
		wire.AppendError(&b, fmt.Sprintf("expected hello, got %s", t))
		_, _ = bw.Write(b.Bytes())
		_ = bw.Flush()
		return fmt.Errorf("server: wire handshake: expected hello, got %s", t)
	}
	h, err := wire.ParseHello(payload)
	if err != nil {
		wire.AppendError(&b, err.Error())
		_, _ = bw.Write(b.Bytes())
		_ = bw.Flush()
		return err
	}
	if h.MinVersion > wire.Version || h.MaxVersion < wire.Version {
		wire.AppendError(&b, fmt.Sprintf("no common protocol version: server speaks %d, client offers [%d,%d]", wire.Version, h.MinVersion, h.MaxVersion))
		_, _ = bw.Write(b.Bytes())
		_ = bw.Flush()
		return errors.New("server: wire handshake: no common version")
	}
	wire.AppendHelloAck(&b, wire.HelloAck{
		Version:   wire.Version,
		Dim:       uint32(s.spec.Dim),
		Horizon:   uint64(s.spec.Horizon),
		Mechanism: s.spec.Mechanism,
		Server:    version.Version,
		Outcomes:  uint16(s.spec.outcomes()),
	})
	if _, err := bw.Write(b.Bytes()); err != nil {
		return err
	}
	return bw.Flush()
}

// wireReadLoop decodes frames and feeds the completion queue until the
// connection stops yielding frames (client close, drain CloseRead, or a
// protocol violation — the latter pushes a fatal completion so the client
// hears why). Observe submissions happen here, synchronously, which is what
// guarantees same-stream apply order matches frame order.
func (s *Server) wireReadLoop(r *wire.Reader, completions chan<- *wireCompletion) {
	for {
		t, payload, err := r.Next()
		if err != nil {
			// Framing damage is worth reporting before hanging up; a plain
			// close or drain is not.
			if errors.Is(err, wire.ErrBadCRC) || errors.Is(err, wire.ErrTruncated) || errors.Is(err, wire.ErrFrameTooLarge) {
				completions <- &wireCompletion{fatal: err}
			}
			return
		}
		switch t {
		case wire.FrameObserve:
			c, fatal := s.wireObserve(payload)
			completions <- c
			if fatal {
				return
			}
		case wire.FrameEstimate:
			req, err := wire.ParseEstimate(payload)
			if err != nil {
				completions <- &wireCompletion{fatal: err}
				return
			}
			c := &wireCompletion{reqID: req.ReqID, route: "wire_estimate", start: time.Now(), id: string(req.ID)}
			if k := s.spec.outcomes(); req.Outcome >= k {
				c.err = fmt.Errorf("server: outcome index %d out of range; pool serves %d outcomes", req.Outcome, k)
				completions <- c
				continue
			}
			if s.cl != nil && s.cl.wireRouteEstimate(c, req.Forwarded(), req.Outcome) {
				completions <- c
				continue
			}
			c.est, c.err = s.pool.EstimateOutcome(c.id, req.Outcome)
			if c.err == nil {
				c.length, _ = s.pool.LenOK(c.id)
			}
			completions <- c
		case wire.FrameRing:
			rr, err := wire.ParseRingReq(payload)
			if err != nil {
				completions <- &wireCompletion{fatal: err}
				return
			}
			c := &wireCompletion{reqID: rr.ReqID, route: "wire_ring", start: time.Now()}
			ack := &wire.RingAck{ReqID: rr.ReqID}
			if s.cl != nil {
				v, blob, err := s.cl.ringJSON()
				if err != nil {
					c.err = err
				} else {
					ack.Version, ack.Ring = v, blob
				}
			}
			// A standalone server answers version 0 with an empty blob, so
			// ring-aware clients can probe any server safely.
			if c.err == nil {
				c.ringAck = ack
			}
			completions <- c
		case wire.FrameSegmentPush:
			sp, err := wire.ParseSegmentPush(payload)
			if err != nil {
				completions <- &wireCompletion{fatal: err}
				return
			}
			// Imported synchronously: the data aliases the read buffer (valid
			// until the next frame), and ack-after-apply means a push acked
			// here is durable on this node's store.
			c := &wireCompletion{reqID: sp.ReqID, route: "wire_segment", start: time.Now()}
			if s.cl == nil {
				c.err = errors.New("server: not clustered; segment push rejected")
			} else if id, err := s.cl.acceptSegment(sp.Data, sp.Length, sp.RingV, sp.Standby); err != nil {
				c.err = err
			} else {
				c.id = id
				c.applied = int(sp.Length)
				c.length = int(sp.Length)
			}
			completions <- c
		case wire.FrameReplicate:
			rep, err := wire.ParseReplicate(payload, s.spec.Dim)
			if err != nil {
				completions <- &wireCompletion{fatal: err}
				return
			}
			// Buffered synchronously: the rows alias the read buffer and are
			// copied out before the next frame overwrites them, and
			// ack-after-buffer means the owner's pre-ack ship really did land.
			c := &wireCompletion{reqID: rep.ReqID, route: "wire_replicate", start: time.Now(), id: string(rep.ID)}
			if s.cl == nil {
				c.err = errors.New("server: not clustered; replicate rejected")
			} else if err := s.cl.acceptReplicate(rep); err != nil {
				c.err = err
			} else {
				c.applied = rep.Rows
				c.length = int(rep.Start) + rep.Rows
			}
			completions <- c
		case wire.FramePing:
			pg, err := wire.ParsePing(payload)
			if err != nil {
				completions <- &wireCompletion{fatal: err}
				return
			}
			c := &wireCompletion{reqID: pg.ReqID, route: "wire_ping", start: time.Now()}
			if s.cl == nil || s.cl.mem == nil {
				c.err = errors.New("server: membership is not enabled on this node")
			} else {
				g := s.cl.mem.handlePing(pg.From, pg.Members)
				g.ReqID = pg.ReqID
				c.gossip = &g
			}
			completions <- c
		case wire.FramePingReq:
			pr, err := wire.ParsePingReq(payload)
			if err != nil {
				completions <- &wireCompletion{fatal: err}
				return
			}
			// The proxied probe runs inline, bounded by the probe timeout:
			// membership rides its own cadence, so briefly parking this read
			// loop costs nothing the detector isn't already waiting for.
			c := &wireCompletion{reqID: pr.ReqID, route: "wire_pingreq", start: time.Now()}
			if s.cl == nil || s.cl.mem == nil {
				c.err = errors.New("server: membership is not enabled on this node")
			} else {
				g := s.cl.mem.handlePingReq(pr.From, pr.Target, pr.Members)
				g.ReqID = pr.ReqID
				c.gossip = &g
			}
			completions <- c
		default:
			completions <- &wireCompletion{fatal: fmt.Errorf("unexpected frame %s", t)}
			return
		}
	}
}

// wireObserve decodes one observe frame into pooled flat buffers and submits
// it. Malformed payloads are connection-fatal (second return true); admission
// rejections and oversized batches resolve to nacks on a healthy connection.
func (s *Server) wireObserve(payload []byte) (*wireCompletion, bool) {
	h, err := wire.ParseObserveHeader(payload, s.spec.Dim)
	if err != nil {
		return &wireCompletion{fatal: err}, true
	}
	c := &wireCompletion{reqID: h.ReqID, route: "wire_observe", start: time.Now(), id: string(h.ID)}
	if h.Rows > s.ing.maxPoints {
		// Same verdict as HTTP 413: a batch larger than the whole queue bound
		// can never be accepted, so the nack is permanent, not retryable.
		c.err = fmt.Errorf("server: batch of %d points exceeds the per-stream queue bound %d; split the batch", h.Rows, s.ing.maxPoints)
		return c, false
	}
	k := s.spec.outcomes()
	if h.Outcomes != k {
		// A mis-shaped batch is permanent: the client's view of the pool's
		// outcome count is wrong, and retrying the same frame cannot succeed.
		c.err = fmt.Errorf("server: observe rows carry %d responses, pool serves %d outcomes", h.Outcomes, k)
		return c, false
	}
	bufs := wireBufPool.Get().(*wireBufs)
	need := h.Rows * s.spec.Dim
	needYs := h.Rows * k
	if cap(bufs.xs) < need {
		bufs.xs = make([]float64, need)
	}
	if cap(bufs.ys) < needYs {
		bufs.ys = make([]float64, needYs)
	}
	xs, ys := bufs.xs[:need], bufs.ys[:needYs]
	if err := h.DecodeRows(xs, ys); err != nil {
		wireBufPool.Put(bufs)
		return &wireCompletion{fatal: err}, true
	}
	if s.cl != nil && s.cl.wireRouteObserve(c, h.Forwarded(), h.From, xs, ys) {
		// Forwarding is synchronous (the frame is written before return), so
		// the decoded buffers can recycle immediately.
		wireBufPool.Put(bufs)
		return c, false
	}
	req := &ingestReq{xs: xs, ys: ys, rows: h.Rows, from: h.From, done: make(chan error, 1)}
	if err := s.ing.submit(c.id, req); err != nil {
		wireBufPool.Put(bufs)
		c.err = err
		return c, false
	}
	c.req, c.bufs = req, bufs
	return c, false
}

// wireAckPump writes responses in completion (= frame) order, batching
// writes: the buffered writer is flushed only when no further completion is
// immediately ready, so a pipelined burst of acks goes out in one syscall.
func (s *Server) wireAckPump(conn net.Conn, bw *bufio.Writer, completions <-chan *wireCompletion) {
	var b wire.Builder
	for c := range completions {
		if c.fatal != nil {
			b.Reset()
			wire.AppendError(&b, c.fatal.Error())
			_, _ = bw.Write(b.Bytes())
			break
		}
		err := c.err
		if c.req != nil {
			err = <-c.req.done
		}
		b.Reset()
		code := s.appendWireResponse(&b, c, err)
		if c.bufs != nil {
			wireBufPool.Put(c.bufs)
		}
		s.met.observeRequest(c.route, code, time.Since(c.start).Seconds())
		if _, werr := bw.Write(b.Bytes()); werr != nil {
			// The client is gone; keep consuming so pending requests are
			// still awaited (their points are applied regardless) and their
			// buffers recycled.
			s.wireDiscard(completions)
			return
		}
		if len(completions) == 0 {
			if bw.Flush() != nil {
				s.wireDiscard(completions)
				return
			}
		}
	}
	_ = bw.Flush()
}

// wireDiscard resolves remaining completions without writing: awaited so the
// drain's guarantee (every submitted request completes) is consumed, recycled
// so the buffer pool is not leaked.
func (s *Server) wireDiscard(completions <-chan *wireCompletion) {
	for c := range completions {
		if c.req != nil {
			<-c.req.done
		}
		if c.bufs != nil {
			wireBufPool.Put(c.bufs)
		}
	}
}

// appendWireResponse encodes the verdict for one request and returns the
// HTTP-equivalent status code for metrics — the same mapping handleObserve
// and handleEstimate use, so the two front-ends are comparable on one
// dashboard.
func (s *Server) appendWireResponse(b *wire.Builder, c *wireCompletion, err error) int {
	switch {
	case err == nil && c.ringAck != nil:
		wire.AppendRingAck(b, *c.ringAck)
		return http.StatusOK
	case err == nil && c.gossip != nil:
		wire.AppendGossip(b, *c.gossip)
		return http.StatusOK
	case err == nil && c.route == "wire_estimate":
		wire.AppendEstimateAck(b, wire.EstimateAck{ReqID: c.reqID, Len: uint64(c.length), Estimate: c.est})
		return http.StatusOK
	case err == nil && c.req != nil:
		applied := c.req.rows
		if c.req.dup {
			applied = 0 // duplicate conditional batch: acked, nothing applied
		}
		length, _ := s.pool.LenOK(c.id)
		wire.AppendAck(b, wire.Ack{ReqID: c.reqID, Applied: uint32(applied), Len: uint64(length)})
		return http.StatusOK
	case err == nil:
		// Pre-resolved success: a forwarded observe (counts from the owner's
		// ack), an imported segment push, or a buffered replicate.
		wire.AppendAck(b, wire.Ack{ReqID: c.reqID, Applied: uint32(c.applied), Len: uint64(c.length)})
		return http.StatusOK
	default:
		// One shared verdict for every rejection on either transport: the
		// nack code, its Retry-After, and the HTTP-equivalent status all come
		// from classify, and a forwarded nack passes through verbatim — the
		// client cannot tell a proxied rejection from a direct one.
		v := classify(err)
		wire.AppendNack(b, wire.Nack{ReqID: c.reqID, Code: v.code, RetryAfter: uint16(v.retryAfter), Msg: err.Error()})
		return v.status
	}
}
