package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"privreg"
	"privreg/internal/server"
	"privreg/internal/wire"
)

// The traced run measures each layer through its public entry point: the
// same operation sequence is replayed serially through a ladder of rungs,
// each adding one layer, and a layer's cost is the difference between
// neighbouring rungs.
//
//	mech      privreg.New estimators, called directly
//	pool      privreg.Pool configured as the workload's server configures it
//	codec     wire.AppendObserve → DecodeFrame → ParseObserveHeader → pool
//	handler   Server.Handler().ServeHTTP on prebuilt JSON requests, no socket
//	loopback  one server over TCP, through the workload's transport
//	cluster   three nodes, the client on one entry node (forwarding hops)

// lop is one replayed workload operation.
type lop struct {
	id      int64
	stream  int // index into the workload's streams
	observe bool
	read    bool
	outcome int
	off     int // stream length before the operation
	readLen int // stream length at the read
}

// ladderOps derives the replayed sequence from the closed loop's own logic:
// each sender's stream creation followed by its first ladderOps operations,
// interleaved round robin across senders.
func ladderOps(w workload, seed int64) []lop {
	offs := make([]int, w.streams)
	per := make([][]lop, w.senders())
	for s := range per {
		owned := w.owned(s)
		for _, i := range owned {
			per[s] = append(per[s], lop{id: int64(s)<<40 | int64(len(per[s])), stream: i, observe: true, off: offs[i]})
			offs[i] += w.batch
		}
		seq := w.opSeq(seed, s)
		ests := 0
		for i := 0; i < w.ladderOps; i++ {
			st := owned[seq[i%len(seq)]]
			o := lop{id: int64(s)<<40 | int64(len(per[s])), stream: st}
			o.observe = w.estimateEvery == 0 || (i+1)%w.estimateEvery != 0
			o.read = w.estimateEvery == 0 || !o.observe
			o.off = offs[st]
			if o.observe {
				offs[st] += w.batch
			}
			if o.read {
				o.outcome = ests % w.outcomes
				o.readLen = offs[st]
				ests++
			}
			per[s] = append(per[s], o)
		}
	}
	var out []lop
	for k := 0; ; k++ {
		more := false
		for s := range per {
			if k < len(per[s]) {
				out = append(out, per[s][k])
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

// rung is one ladder step: how to observe and read through that layer.
type rung struct {
	name    string
	observe func(o lop, in *input) error
	read    func(o lop, id string) error
	// final reads an estimate untimed, for the cross-rung identity check;
	// nil on the mech rung, whose estimators are not pool streams.
	final func(id string, outcome, n int) ([]float64, error)
	close func() error
}

// poolOptions mirrors server.New's pool construction: the spec's options,
// plus the spill store when the workload's server spills.
func poolOptions(w workload, sp server.Spec, dir string) ([]privreg.Option, error) {
	opts, err := sp.Options()
	if err != nil {
		return nil, err
	}
	if w.storeCap > 0 {
		opts = append(opts, privreg.WithSpillDir(dir), privreg.WithStoreCap(w.storeCap))
	}
	return opts, nil
}

func poolObserve(p *privreg.Pool, w workload, id string, xs, ys []float64) error {
	if w.outcomes > 1 {
		return p.ObserveMultiFlat(id, w.dim, xs, ys)
	}
	return p.ObserveFlat(id, w.dim, xs, ys)
}

// ladderStats collects what the rungs count besides time.
type ladderStats struct {
	poolOps, hits       int64
	faultIns, evictions int64
	hitDur, missDur     time.Duration
	frameBytes          int64
	clusterObserves     int64
	clusterScrape       scrape
}

func runLadder(ctx context.Context, w workload, sp server.Spec, ops []lop, ins []*input, spill string, log *spanLog, st *ladderStats) error {
	makers := []func() (*rung, error){
		func() (*rung, error) { return mechRung(w, sp, log) },
		func() (*rung, error) { return poolRung(w, sp, filepath.Join(spill, "pool"), log, st) },
		func() (*rung, error) { return codecRung(w, sp, filepath.Join(spill, "codec"), log, st) },
		func() (*rung, error) { return handlerRung(w, sp, filepath.Join(spill, "handler"), log) },
		func() (*rung, error) { return netRung(ctx, w, sp, 1, filepath.Join(spill, "loopback"), log, st) },
		func() (*rung, error) { return netRung(ctx, w, sp, 3, filepath.Join(spill, "cluster"), log, st) },
	}
	// Every operation goes through every rung in turn, so drift in the
	// machine's speed lands on all rungs alike and the differences between
	// neighbouring rungs keep only the layers' own costs.
	var rungs []*rung
	defer func() {
		for _, rg := range rungs {
			rg.close()
		}
	}()
	for _, mk := range makers {
		rg, err := mk()
		if err != nil {
			return err
		}
		rungs = append(rungs, rg)
	}
	runtime.GC()
	for j, o := range ops {
		if err := ctx.Err(); err != nil {
			return err
		}
		in := ins[o.stream]
		// The first rung of an operation reads its rows from memory, the
		// rest find them in cache; rotating the order spreads that evenly.
		for r := range rungs {
			rg := rungs[(j+r)%len(rungs)]
			if o.observe {
				if err := rg.observe(o, in); err != nil {
					return fmt.Errorf("rung %s: %w", rg.name, err)
				}
			}
			if o.read {
				if err := rg.read(o, in.id); err != nil {
					return fmt.Errorf("rung %s: %w", rg.name, err)
				}
			}
		}
	}
	// Every rung above mech serves the same per-stream pool, so all must end
	// in bit-identical estimates.
	var ref [][]float64
	for _, rg := range rungs {
		if rg.final == nil {
			continue
		}
		var fin [][]float64
		for i, in := range ins {
			for o := 0; o < w.outcomes; o++ {
				theta, err := rg.final(in.id, o, finalLen(ops, i, w))
				if err != nil {
					return fmt.Errorf("rung %s final read: %w", rg.name, err)
				}
				fin = append(fin, theta)
			}
		}
		if ref == nil {
			ref = fin
			continue
		}
		for i := range fin {
			if !sameBits(fin[i], ref[i]) {
				return fmt.Errorf("%w: rung %s final estimate %d differs from the pool rung", errMismatch, rg.name, i)
			}
		}
	}
	var errs []error
	for _, rg := range rungs {
		errs = append(errs, rg.close())
	}
	rungs = nil
	return errors.Join(errs...)
}

// mechRung calls one estimator per stream; a read is timed cold (the first
// after new rows) and then warm (a repeat).
func mechRung(w workload, sp server.Spec, log *spanLog) (*rung, error) {
	opts, err := sp.Options()
	if err != nil {
		return nil, err
	}
	ests := make([]privreg.MultiEstimator, w.streams)
	for i := range ests {
		e, err := privreg.New(sp.Mechanism, opts...)
		if err != nil {
			return nil, err
		}
		ests[i] = e.(privreg.MultiEstimator)
	}
	return &rung{
		name: "mech",
		observe: func(o lop, in *input) error {
			xs, ys := in.block(w, o.off)
			t0 := time.Now()
			var err error
			if w.outcomes > 1 {
				err = ests[o.stream].ObserveMultiFlat(w.dim, xs, ys)
			} else {
				err = ests[o.stream].(privreg.FlatObserver).ObserveFlat(w.dim, xs, ys)
			}
			log.add("mech", "observe", o.id, t0, time.Now())
			return err
		},
		read: func(o lop, id string) error {
			t0 := time.Now()
			if _, err := ests[o.stream].EstimateOutcome(o.outcome); err != nil {
				return err
			}
			t1 := time.Now()
			_, err := ests[o.stream].EstimateOutcome(o.outcome)
			t2 := time.Now()
			log.add("mech", "estimate", o.id, t0, t1)
			log.add("mech", "estimate_warm", o.id, t1, t2)
			return err
		},
		close: func() error { return nil },
	}, nil
}

// poolRung calls a pool configured as the server's, splitting calls by
// whether they had to materialize the stream's estimator (a spill fault-in,
// or first construction).
func poolRung(w workload, sp server.Spec, dir string, log *spanLog, st *ladderStats) (*rung, error) {
	pool, err := newLadderPool(w, sp, dir)
	if err != nil {
		return nil, err
	}
	call := func(o lop, op string, fn func() error) error {
		before := pool.Stats()
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		after := pool.Stats()
		log.add("pool", op, o.id, t0, t1)
		st.poolOps++
		st.faultIns += after.FaultIns - before.FaultIns
		st.evictions += after.Evictions - before.Evictions
		if after.FaultIns == before.FaultIns && after.Streams == before.Streams {
			st.hits++
			st.hitDur += t1.Sub(t0)
		} else {
			st.missDur += t1.Sub(t0)
		}
		return err
	}
	return &rung{
		name: "pool",
		observe: func(o lop, in *input) error {
			xs, ys := in.block(w, o.off)
			return call(o, "observe", func() error { return poolObserve(pool, w, in.id, xs, ys) })
		},
		read: func(o lop, id string) error {
			return call(o, "estimate", func() error {
				_, err := pool.EstimateOutcome(id, o.outcome)
				return err
			})
		},
		final: func(id string, outcome, _ int) ([]float64, error) { return pool.EstimateOutcome(id, outcome) },
		close: func() error { return os.RemoveAll(dir) },
	}, nil
}

// codecRung puts the wire frame round trip in front of a pool.
func codecRung(w workload, sp server.Spec, dir string, log *spanLog, st *ladderStats) (*rung, error) {
	pool, err := newLadderPool(w, sp, dir)
	if err != nil {
		return nil, err
	}
	var b wire.Builder
	xbuf := make([]float64, w.batch*w.dim)
	ybuf := make([]float64, w.batch*w.outcomes)
	return &rung{
		name: "codec",
		observe: func(o lop, in *input) error {
			xs, ys := in.block(w, o.off)
			t0 := time.Now()
			b.Reset()
			wire.AppendObserve(&b, uint64(o.id), 0, in.id, int64(o.off), w.dim, xs, ys)
			t1 := time.Now()
			_, payload, _, err := wire.DecodeFrame(b.Bytes())
			if err != nil {
				return err
			}
			h, err := wire.ParseObserveHeader(payload, w.dim)
			if err != nil {
				return err
			}
			if err := h.DecodeRows(xbuf, ybuf); err != nil {
				return err
			}
			t2 := time.Now()
			err = poolObserve(pool, w, string(h.ID), xbuf, ybuf)
			t3 := time.Now()
			st.frameBytes += int64(b.Len())
			log.add("codec", "encode", o.id, t0, t1)
			log.add("codec", "decode", o.id, t1, t2)
			log.add("codec", "apply", o.id, t2, t3)
			log.add("codec", "observe", o.id, t0, t3)
			return err
		},
		read: func(o lop, id string) error {
			t0 := time.Now()
			b.Reset()
			wire.AppendEstimate(&b, uint64(o.id), 0, id, o.outcome)
			_, payload, _, err := wire.DecodeFrame(b.Bytes())
			if err != nil {
				return err
			}
			req, err := wire.ParseEstimate(payload)
			if err != nil {
				return err
			}
			_, err = pool.EstimateOutcome(string(req.ID), req.Outcome)
			log.add("codec", "estimate", o.id, t0, time.Now())
			return err
		},
		final: func(id string, outcome, _ int) ([]float64, error) { return pool.EstimateOutcome(id, outcome) },
		close: func() error { return os.RemoveAll(dir) },
	}, nil
}

// handlerRung drives the HTTP/JSON front end without a socket; each request
// is built before its span starts.
func handlerRung(w workload, sp server.Spec, dir string, log *spanLog) (*rung, error) {
	cfg := server.Config{Spec: sp, CheckpointInterval: -1}
	if w.storeCap > 0 {
		cfg.CheckpointDir = dir
		cfg.StoreCap = w.storeCap
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	get := func(id string, outcome int) (*httptest.ResponseRecorder, time.Time, time.Time) {
		req := httptest.NewRequest(http.MethodGet, "/v1/streams/"+id+"/estimate?outcome="+strconv.Itoa(outcome), nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		return rec, t0, time.Now()
	}
	return &rung{
		name: "handler",
		observe: func(o lop, in *input) error {
			body := append(strconv.AppendInt([]byte(`{"from":`), int64(o.off), 10), ',')
			body = append(body, in.body(w, o.off)...)
			req := httptest.NewRequest(http.MethodPost, "/v1/streams/"+in.id+"/observe", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			log.add("handler", "observe", o.id, t0, time.Now())
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler observe: HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			}
			return nil
		},
		read: func(o lop, id string) error {
			rec, t0, t1 := get(id, o.outcome)
			log.add("handler", "estimate", o.id, t0, t1)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler estimate: HTTP %d", rec.Code)
			}
			return nil
		},
		final: func(id string, outcome, _ int) ([]float64, error) {
			rec, _, _ := get(id, outcome)
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("handler estimate: HTTP %d", rec.Code)
			}
			var resp struct {
				Estimate []float64 `json:"estimate"`
			}
			err := json.Unmarshal(rec.Body.Bytes(), &resp)
			return resp.Estimate, err
		},
		close: func() error { return errors.Join(srv.Close(), os.RemoveAll(dir)) },
	}, nil
}

// netRung drives one server (loopback) or a three-node cluster through the
// workload's own client, connected to the first node.
func netRung(ctx context.Context, w workload, sp server.Spec, nodes int, dir string, log *spanLog, st *ladderStats) (*rung, error) {
	name, replicas := "loopback", 0
	if nodes > 1 {
		name, replicas = "cluster", max(w.replicas, 2)
	}
	sys, err := boot(sp, nodes, replicas, w.storeCap, dir)
	if err != nil {
		return nil, err
	}
	c, err := dial(w, sys.nodes[0])
	if err != nil {
		return nil, errors.Join(err, sys.close())
	}
	var cnt counts
	return &rung{
		name: name,
		observe: func(o lop, in *input) error {
			t0 := time.Now()
			err := c.observe(ctx, &cnt, in, o.off)
			log.add(name, "observe", o.id, t0, time.Now())
			if nodes > 1 {
				st.clusterObserves++
			}
			return err
		},
		read: func(o lop, id string) error {
			t0 := time.Now()
			_, err := c.estimate(ctx, &cnt, id, o.outcome, o.readLen)
			log.add(name, "estimate", o.id, t0, time.Now())
			return err
		},
		final: func(id string, outcome, n int) ([]float64, error) { return c.estimate(ctx, &cnt, id, outcome, n) },
		close: func() error {
			var err error
			if nodes > 1 {
				st.clusterScrape, err = scrapeAll(sys)
			}
			c.close()
			return errors.Join(err, sys.close())
		},
	}, nil
}

func newLadderPool(w workload, sp server.Spec, dir string) (*privreg.Pool, error) {
	opts, err := poolOptions(w, sp, dir)
	if err != nil {
		return nil, err
	}
	return privreg.NewPool(sp.Mechanism, opts...)
}

// finalLen is stream i's length after the replay.
func finalLen(ops []lop, i int, w workload) int {
	n := 0
	for _, o := range ops {
		if o.stream == i && o.observe {
			n = o.off + w.batch
		}
	}
	return n
}

// runTraced is the --trace 1 run: the closed loop in alternating untraced
// and traced slices (their ratio is the tracing overhead), the correctness
// gate, and the ladder, reported as per-layer metrics.
func runTraced(ctx context.Context, w workload, sp server.Spec, seed int64, ins []*input, dur time.Duration, spill, outDir string, r *result) error {
	log := &spanLog{t0: time.Now()}
	e, err := setup(ctx, w, sp, seed, ins, filepath.Join(spill, "loop"), r)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer e.close()
	// Untraced and traced slices alternate, so drift over the run lands on
	// both sides of the tracing-overhead ratio alike.
	const slices = 3
	var plain, traced phase
	var coalesced, applied int64
	for k := 0; k < slices; k++ {
		before, err := scrapeAll(e.sys)
		if err != nil {
			return err
		}
		plain.merge(timedPhase(ctx, e.senders, dur/(2*slices)))
		after, err := scrapeAll(e.sys)
		if err != nil {
			return err
		}
		coalesced += after.Ingest.CoalescedBatches - before.Ingest.CoalescedBatches
		applied += after.Ingest.AppliedBatches - before.Ingest.AppliedBatches
		for _, s := range e.senders {
			s.log = &spanLog{t0: log.t0}
		}
		traced.merge(timedPhase(ctx, e.senders, dur/(2*slices)))
		for _, s := range e.senders {
			log.spans = append(log.spans, s.log.spans...)
			s.log = nil
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	r.cnt = plain.cnt
	r.cnt.add(traced.cnt)
	gateErr := errors.Join(plain.bad, traced.bad, verify(ctx, w, sp, e))
	if err := e.close(); err != nil {
		return err
	}

	var st ladderStats
	ops := ladderOps(w, seed)
	if err := runLadder(ctx, w, sp, ops, ins, spill, log, &st); err != nil {
		if !errors.Is(err, errMismatch) {
			return err
		}
		gateErr = errors.Join(gateErr, err)
	}
	if gateErr != nil {
		r.correct = false
		r.gate = gateErr
	}

	rows := 0
	for _, o := range ops {
		if o.observe {
			rows++
		}
	}
	pts := float64(rows * w.batch)
	perPoint := func(rung string) float64 { return float64(log.total(rung, "observe")) / pts }
	usMedian := func(rung, op string) float64 { return median(log.durations(rung, op)) / 1e3 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	mean := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n) / 1e3
	}
	rung3 := "codec"
	if w.transport == "http" {
		rung3 = "handler"
	}
	r.add("core.observe_ns_per_point", perPoint("mech"), "ns")
	r.add("core.estimate_cold_us", usMedian("mech", "estimate"), "us")
	r.add("core.estimate_warm_us", usMedian("mech", "estimate_warm"), "us")
	r.add("pool.observe_ns_per_point", perPoint("pool")-perPoint("mech"), "ns")
	r.add("store.hit_ratio", ratio(float64(st.hits), float64(st.poolOps)), "ratio")
	r.add("store.fault_ins_per_op", ratio(float64(st.faultIns), float64(st.poolOps)), "ratio")
	r.add("store.evictions_per_op", ratio(float64(st.evictions), float64(st.poolOps)), "ratio")
	r.add("store.hit_op_us", mean(st.hitDur, st.hits), "us")
	r.add("store.miss_op_us", mean(st.missDur, st.poolOps-st.hits), "us")
	r.add("server.http_ns_per_point", perPoint("handler")-perPoint("pool"), "ns")
	r.add("wire.encode_ns_per_point", float64(log.total("codec", "encode"))/pts, "ns")
	r.add("wire.decode_ns_per_point", float64(log.total("codec", "decode"))/pts, "ns")
	r.add("wire.bytes_per_point", float64(st.frameBytes)/pts, "bytes")
	r.add("net.loopback_ns_per_point", perPoint("loopback")-perPoint(rung3), "ns")
	plainOps := float64(plain.cnt.attempted)
	r.add("server.ingest_coalesce_ratio", ratio(float64(coalesced), float64(applied)), "ratio")
	r.add("server.ingest_rejects_per_op", ratio(float64(plain.cnt.retried), plainOps), "ratio")
	r.add("cluster.hop_ns_per_point", perPoint("cluster")-perPoint("loopback"), "ns")
	var fwd, rep, ferr float64
	if cs := st.clusterScrape.Cluster; cs != nil {
		fwd, rep, ferr = float64(cs.ForwardedObserves), float64(cs.ReplicatesShipped), float64(cs.ForwardErrors)
	}
	r.add("cluster.forwarded_ratio", ratio(fwd, float64(st.clusterObserves)), "ratio")
	r.add("cluster.replicated_per_batch", ratio(rep, float64(st.clusterScrape.Ingest.AppliedBatches)), "ratio")
	r.add("cluster.forward_errors", ferr, "count")
	r.add("diag.observe_p99_ms", pct(plain.obs, 0.99), "ms")
	r.add("diag.estimate_p99_ms", pct(plain.est, 0.99), "ms")
	plainRate := float64(plain.rows) / plain.elapsed.Seconds()
	tracedRate := float64(traced.rows) / traced.elapsed.Seconds()
	r.add("trace.overhead_pct", (plainRate/tracedRate-1)*100, "%")
	r.notes = append(r.notes,
		fmt.Sprintf("ladder: %d operations, %d rows per rung; untraced loop %.0f points/s, traced loop %.0f points/s", len(ops), rows*w.batch, plainRate, tracedRate),
		"wire.bytes_per_point is computed from encoded frame sizes, not captured from a socket")

	r.spans = filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return log.write(r.spans)
}
