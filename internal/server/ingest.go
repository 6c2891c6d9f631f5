package server

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"privreg"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// errQueueFull means the stream's bounded ingest queue cannot hold the
	// request — the client should back off and retry (429). Rejections carry
	// it wrapped in a queueFullError with a Retry-After hint.
	errQueueFull = errors.New("server: stream ingest queue is full")
	// errDraining means the server is shutting down and no longer accepts
	// ingestion (503).
	errDraining = errors.New("server: draining, not accepting new observations")
	// errHandoff means the stream is sealed mid-handoff to another cluster
	// node — retry shortly and the request will route to the new owner
	// (503 + Retry-After over HTTP, a retryable nack over the wire).
	errHandoff = errors.New("server: stream handoff in progress; retry shortly")
	// errConflict means a conditional observe's expected offset does not
	// match the stream's length and the batch is neither new nor already
	// applied (409, not retryable: the client's view of the stream is wrong).
	errConflict = errors.New("server: conditional observe offset conflict")
)

// conflictError is the concrete conditional-ingest rejection: errConflict
// (matchable with errors.Is) plus the two lengths that disagreed, so the
// client can resynchronize without another round trip.
type conflictError struct {
	want int64 // the request's expected offset
	have int64 // the stream's length at apply time
}

func (e *conflictError) Error() string {
	return fmt.Sprintf("server: conditional observe expects offset %d, stream length is %d", e.want, e.have)
}
func (e *conflictError) Unwrap() error { return errConflict }

// queueFullError is the concrete 429 rejection: errQueueFull (matchable with
// errors.Is) plus a Retry-After hint derived from how long the stream's
// queued backlog will take to drain at the recently observed apply rate.
type queueFullError struct {
	// retryAfter is the suggested client back-off, in whole seconds (the
	// Retry-After header's granularity), jittered so synchronized clients
	// spread out instead of retrying in lockstep.
	retryAfter int
}

func (e *queueFullError) Error() string { return errQueueFull.Error() }
func (e *queueFullError) Unwrap() error { return errQueueFull }

// retryAfterHint bounds the header value: at least 1 (the header cannot say
// "fractions of a second"), at most 30 (past that the estimate says "shed
// load", not "wait this exact long").
const (
	minRetryAfter = 1
	maxRetryAfter = 30
)

// retryAfter builds the 429 hint for a stream with queuedPoints waiting:
// backlog ÷ drain-rate seconds, stretched by a multiplicative jitter in
// [1, 1.5) and nudged by an additive 0–1s jitter so clients rejected in the
// same instant come back staggered even when the base estimate rounds to the
// minimum. The EWMA tracks the pool-wide apply rate while the backlog is
// per-stream, so the rate is scaled down by the number of streams currently
// draining — an approximation (streams drain in parallel on multi-core
// hosts), erring toward longer hints rather than telling every client on an
// overloaded server to come back in a second.
func (in *ingester) retryAfter(queuedPoints int) *queueFullError {
	in.rateMu.Lock()
	rate := in.applyRate
	in.rateMu.Unlock()
	in.mu.Lock()
	active := len(in.queues)
	in.mu.Unlock()
	if active > 1 {
		rate /= float64(active)
	}
	base := 1.0
	if rate > 0 && queuedPoints > 0 {
		base = float64(queuedPoints) / rate
	}
	secs := int(math.Ceil(base*(1+rand.Float64()/2))) + rand.IntN(2)
	if secs < minRetryAfter {
		secs = minRetryAfter
	}
	if secs > maxRetryAfter {
		secs = maxRetryAfter
	}
	return &queueFullError{retryAfter: secs}
}

// noteApplied feeds the drain-rate estimator: an exponentially weighted
// moving average of points applied per second, cheap enough to update on
// every apply and robust to the bursty group-commit cadence.
func (in *ingester) noteApplied(points int) {
	now := time.Now()
	in.rateMu.Lock()
	if !in.lastApply.IsZero() {
		if dt := now.Sub(in.lastApply).Seconds(); dt > 0 {
			inst := float64(points) / dt
			if in.applyRate == 0 {
				in.applyRate = inst
			} else {
				const alpha = 0.2
				in.applyRate = (1-alpha)*in.applyRate + alpha*inst
			}
		}
	}
	in.lastApply = now
	in.rateMu.Unlock()
}

// ingestReq is one observation request waiting in a stream's queue: a flat
// row batch of rows rows, covariates row-major in xs (rows×d) and responses
// row-major in ys (rows×k, k the pool's outcome count), which travels to the
// pool without ever materializing per-row slices. done receives the
// application result exactly once (buffered so the drainer never blocks on a
// departed waiter). The queue owner must not recycle the request's buffers
// until done fires.
type ingestReq struct {
	xs   []float64
	ys   []float64
	rows int
	// from is the expected stream offset for conditional (exactly-once)
	// ingest, or -1 for unconditional. A conditional request applies only when
	// the stream's length equals from; a batch whose rows are already fully
	// present (from+rows ≤ length) is acknowledged as a duplicate without
	// applying, and anything else is a conflict. Conditional requests are
	// never merged into a coalesced batch — each is checked against the live
	// length in arrival order.
	from int64
	// dup records that the request was recognized as an already-applied
	// duplicate (done receives nil, zero points were applied).
	dup  bool
	done chan error
}

// streamQueue is the pending work of one stream. points counts queued (not
// yet taken) covariate/response pairs; active is true while a drainer
// goroutine owns the queue; dead marks a queue the drainer has retired and
// removed from the map (enqueue must refetch rather than append, so a stream
// can never have two live queues applying out of order).
type streamQueue struct {
	mu      sync.Mutex
	pending []*ingestReq
	points  int
	active  bool
	dead    bool
}

// ingester is the concurrent ingestion path between the HTTP handlers and the
// Pool: per-stream bounded queues with group-commit batching.
//
// Every enqueued request is applied in arrival order and acknowledged only
// after the pool accepted it (a 200 means the points are in the private
// state). Batching happens opportunistically: while one request is being
// applied, later arrivals for the same stream queue up, and the drainer takes
// them all in one pool call — bit-identical to applying them one by one (the
// Estimator contract), but paying the per-call overhead once.
//
// Backpressure is per stream: when a stream's queued points would exceed
// maxPoints the request is rejected with errQueueFull and nothing is
// enqueued. Distinct streams never block each other (the Pool locks per
// stream, the ingester queues per stream).
type ingester struct {
	pool      *privreg.Pool
	dim       int // covariate dimension d of every row
	maxPoints int
	met       *metrics

	// drainMu serializes shutdown against in-flight enqueues: enqueue holds
	// the read side from the draining check through worker spawn (wg.Add), so
	// once drain() holds the write side and flips draining, wg covers every
	// worker that will ever exist.
	drainMu  sync.RWMutex
	draining bool

	// sealed, when non-nil, reports streams mid-handoff (cluster serving):
	// their submissions are rejected retryably at the front door so the
	// losing node can quiesce and export. Set once before serving starts.
	sealed func(id string) bool

	// applied, when non-nil, runs synchronously after each successfully
	// applied request, before the request's waiter is released — cluster
	// serving uses it to ship the batch to the stream's warm standbys so a
	// batch is replicated before its ack leaves the node. start is the
	// stream's length before the request's rows. Duplicate conditional
	// requests (nothing applied) never reach the hook. Set once before
	// serving starts.
	applied func(id string, start int64, r *ingestReq)

	mu     sync.Mutex
	queues map[string]*streamQueue
	wg     sync.WaitGroup

	// rateMu guards the drain-rate EWMA behind 429 Retry-After hints.
	rateMu    sync.Mutex
	applyRate float64 // points/second recently applied to the pool
	lastApply time.Time
}

func newIngester(pool *privreg.Pool, dim, maxPoints int, met *metrics) *ingester {
	return &ingester{
		pool:      pool,
		dim:       dim,
		maxPoints: maxPoints,
		met:       met,
		queues:    make(map[string]*streamQueue),
	}
}

// enqueue submits one flat row batch for the stream — covariates row-major
// in xs, the pool's outcome count of responses per row in ys — and blocks
// until it has been applied (or rejected). The returned error is the pool's
// verdict for exactly this request's points. from is the conditional-ingest
// offset (-1 for unconditional); applied reports how many rows actually
// landed (0 for a duplicate conditional batch).
func (in *ingester) enqueue(id string, xs, ys []float64, from int64) (applied int, err error) {
	req := &ingestReq{xs: xs, ys: ys, rows: len(xs) / in.dim, from: from, done: make(chan error, 1)}
	if err := in.submit(id, req); err != nil {
		return 0, err
	}
	if err := <-req.done; err != nil {
		return 0, err
	}
	if req.dup {
		return 0, nil
	}
	return req.rows, nil
}

// submit places a request in the stream's queue without waiting for
// application: admission errors (queue full, draining) return immediately and
// nothing is queued; on nil the pool's verdict for exactly this request's
// points arrives later on req.done. This is the pipelined front door the wire
// connection uses — its read loop keeps decoding frames while earlier batches
// drain — and enqueue is the blocking wrapper over it. Requests submitted for
// the same stream are applied in submit order.
func (in *ingester) submit(id string, req *ingestReq) error {
	points := req.rows
	if points == 0 {
		req.done <- nil
		return nil
	}

	in.drainMu.RLock()
	if in.draining {
		in.drainMu.RUnlock()
		in.met.addRejected(true)
		return errDraining
	}
	if in.sealed != nil && in.sealed(id) {
		in.drainMu.RUnlock()
		in.met.addRejected(false)
		return errHandoff
	}
	for {
		in.mu.Lock()
		q := in.queues[id]
		if q == nil {
			q = &streamQueue{}
			in.queues[id] = q
		}
		in.mu.Unlock()

		q.mu.Lock()
		if q.dead {
			// The drainer retired this queue between our map fetch and the
			// lock; refetch (the map entry is already gone).
			q.mu.Unlock()
			continue
		}
		if q.points+points > in.maxPoints {
			queued := q.points
			q.mu.Unlock()
			in.drainMu.RUnlock()
			in.met.addRejected(false)
			return in.retryAfter(queued)
		}
		q.pending = append(q.pending, req)
		q.points += points
		if !q.active {
			q.active = true
			in.wg.Add(1)
			go in.drainQueue(id, q)
		}
		q.mu.Unlock()
		break
	}
	in.drainMu.RUnlock()
	return nil
}

// drainQueue applies a stream's queued requests until the queue is empty,
// then retires the queue — marks it dead and removes its map entry, so the
// ingester holds no state for idle or dropped streams (a later enqueue
// creates a fresh queue and drainer). Retirement takes in.mu before q.mu
// (the same order enqueue effectively uses) and re-checks emptiness under
// both, so an enqueue that already fetched this queue either lands its
// request before retirement or sees dead and refetches.
func (in *ingester) drainQueue(id string, q *streamQueue) {
	defer in.wg.Done()
	// merged is the drainer's group-commit buffer, reused across groups.
	var merged ingestReq
	for {
		q.mu.Lock()
		if len(q.pending) == 0 {
			q.mu.Unlock()
			in.mu.Lock()
			q.mu.Lock()
			if len(q.pending) == 0 {
				q.active = false
				q.dead = true
				delete(in.queues, id)
				q.mu.Unlock()
				in.mu.Unlock()
				return
			}
			q.mu.Unlock()
			in.mu.Unlock()
			continue
		}
		batch := q.pending
		q.pending = nil
		taken := 0
		for _, r := range batch {
			taken += r.rows
		}
		q.points -= taken
		q.mu.Unlock()
		in.apply(id, batch, taken, &merged)
	}
}

// applyOne lands a single request on the pool; its covariates stay in the
// transport's receive buffer all the way into the estimator. Conditional
// requests are resolved against the stream's live length first: apply at the
// expected offset, acknowledge an already-applied batch as a duplicate,
// reject everything else as a conflict.
func (in *ingester) applyOne(id string, r *ingestReq) error {
	if r.from >= 0 {
		n, _ := in.pool.LenOK(id)
		cur := int64(n)
		switch {
		case r.from == cur:
			// Expected offset: fall through and apply.
		case r.from+int64(r.rows) <= cur:
			// The whole batch is already in the stream (a retry of a batch
			// whose ack was lost): succeed without applying anything.
			r.dup = true
			return nil
		default:
			return &conflictError{want: r.from, have: cur}
		}
	}
	return in.pool.ObserveMultiFlat(id, in.dim, r.xs, r.ys)
}

// finishOne applies one request (conditional or not), feeds metrics and the
// applied hook, and resolves its waiter.
func (in *ingester) finishOne(id string, r *ingestReq) {
	var start int64
	if in.applied != nil {
		n, _ := in.pool.LenOK(id)
		start = int64(n)
	}
	err := in.applyOne(id, r)
	if err == nil && !r.dup {
		in.met.addIngested(r.rows, 1)
		in.noteApplied(r.rows)
		if in.applied != nil {
			in.applied(id, start, r)
		}
	}
	r.done <- err
}

// apply lands a group of queued requests on the pool. The common case
// appends their rows into the drainer's merge buffer m and lands them in one
// pool call; if the merged batch is rejected (for example one request would
// overrun the stream's horizon, which rejects the whole batch), it falls back
// to applying each request separately so errors attach to the request that
// caused them and innocent requests still land. A group containing any
// conditional request is always applied request by request, in order, so
// every offset is checked against the length the stream actually has when
// that request's turn comes.
func (in *ingester) apply(id string, batch []*ingestReq, points int, m *ingestReq) {
	if len(batch) == 1 {
		in.finishOne(id, batch[0])
		return
	}
	conditional := false
	for _, r := range batch {
		if r.from >= 0 {
			conditional = true
			break
		}
	}
	if !conditional {
		m.xs, m.ys = m.xs[:0], m.ys[:0]
		for _, r := range batch {
			m.xs = append(m.xs, r.xs...)
			m.ys = append(m.ys, r.ys...)
		}
		var start int64
		if in.applied != nil {
			n, _ := in.pool.LenOK(id)
			start = int64(n)
		}
		if err := in.pool.ObserveMultiFlat(id, in.dim, m.xs, m.ys); err == nil {
			in.met.addIngested(points, len(batch))
			in.noteApplied(points)
			if in.applied != nil {
				off := start
				for _, r := range batch {
					in.applied(id, off, r)
					off += int64(r.rows)
				}
			}
			for _, r := range batch {
				r.done <- nil
			}
			return
		}
	}
	for _, r := range batch {
		in.finishOne(id, r)
	}
}

// pending reports whether the stream has a live queue (queued or in-flight
// requests). Combined with sealing, a false result means the stream is
// quiesced: nothing queued, and nothing new can enter.
func (in *ingester) pending(id string) bool {
	in.mu.Lock()
	_, ok := in.queues[id]
	in.mu.Unlock()
	return ok
}

// drain rejects all future enqueues and blocks until every queued request has
// been applied and acknowledged.
func (in *ingester) drain() {
	in.drainMu.Lock()
	in.draining = true
	in.drainMu.Unlock()
	in.wg.Wait()
}
