package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"privreg"
	"privreg/internal/server"
)

// standbyPushInterval is the cluster's default standby segment push cadence
// (server.ClusterConfig.ReplicationInterval left at zero). Each push lets
// the standbys prune their buffers of replicated batches.
const standbyPushInterval = 2 * time.Second

// ramp is the closed loop run after the last setup and before timing
// starts, so the heap, the store's LRU and the ingesters have reached their
// steady state when the timed phase begins. Its samples are dropped.
const ramp = time.Second

// setups is how many times an untraced run boots the system; setup_s is the
// median, and the last boot serves the timed phase.
const setups = 9

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is everything one run reports.
type result struct {
	correct bool
	gate    error // why correct is false
	cnt     counts
	metrics []metric
	addrs   []string // every listener the run opened
	spans   string   // span file of a traced run
	notes   []string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// env is a booted system with its connected clients and senders.
type env struct {
	sys     *system
	clients []*client
	senders []*sender
}

func (e *env) close() error {
	for _, c := range e.clients {
		c.close()
	}
	if e.sys == nil {
		return nil
	}
	return e.sys.close()
}

// setup boots the system, dials the clients, creates every stream and runs
// the untimed warm-up. Stream offsets start from zero each time.
func setup(ctx context.Context, w workload, sp server.Spec, seed int64, ins []*input, dir string, r *result) (*env, error) {
	sys, err := boot(sp, w.nodes, w.replicas, w.storeCap, dir)
	if err != nil {
		return nil, err
	}
	e := &env{sys: sys}
	r.addrs = append(r.addrs, sys.addrs()...)
	for c := 0; c < w.conns; c++ {
		cl, err := dial(w, sys.nodes[0])
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.clients = append(e.clients, cl)
	}
	for s := 0; s < w.senders(); s++ {
		snd := &sender{idx: s, w: w, c: e.clients[s/w.inflight], seq: w.opSeq(seed, s)}
		for _, i := range w.owned(s) {
			snd.streams = append(snd.streams, &stream{id: ins[i].id, in: ins[i]})
		}
		snd.reset(time.Now(), w.warmupOps*2)
		e.senders = append(e.senders, snd)
	}
	errs := make([]error, len(e.senders))
	var wg sync.WaitGroup
	for i, s := range e.senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.create(ctx)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, errors.Join(fmt.Errorf("creating streams: %w", err), e.close())
	}
	runSenders(ctx, e.senders, 0, w.warmupOps)
	for _, s := range e.senders {
		if s.fail != nil {
			return nil, errors.Join(fmt.Errorf("warm-up: %w", s.fail), e.close())
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

// runWorkload performs one run: the untraced end-to-end measurement, or the
// traced run with its layer ladder.
func runWorkload(ctx context.Context, w workload, seed int64, seconds int, trace bool, outDir string) (*result, error) {
	sp := w.spec(seed)
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	tau, err := w.tau(sp)
	if err != nil {
		return nil, err
	}
	r := &result{correct: true}
	tauNote := "none (solves at every read)"
	if tau > 0 {
		tauNote = fmt.Sprint(tau)
	}
	r.notes = append(r.notes, fmt.Sprintf("spec: mechanism=%s d=%d outcomes=%d batch=%d streams=%d store_cap=%d nodes=%d replicas=%d horizon=%d tau=%s",
		sp.Mechanism, w.dim, w.outcomes, w.batch, w.streams, w.storeCap, w.nodes, w.replicas, sp.Horizon, tauNote))
	ids, err := w.streamIDs(seed)
	if err != nil {
		return nil, err
	}
	ins, err := genInputs(w, ids, w.transport == "http" || trace)
	if err != nil {
		return nil, err
	}
	spill := spillRoot(outDir)
	r.notes = append(r.notes, hostLine(spill))
	dur := time.Duration(seconds) * time.Second
	if trace {
		return r, runTraced(ctx, w, sp, seed, ins, dur, spill, outDir, r)
	}
	return r, runUntraced(ctx, w, sp, seed, ins, dur, spill, r)
}

func runUntraced(ctx context.Context, w workload, sp server.Spec, seed int64, ins []*input, dur time.Duration, spill string, r *result) error {
	var e *env
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	var setupS []float64
	for k := 0; k < setups; k++ {
		if e != nil {
			if err := e.close(); err != nil {
				return fmt.Errorf("teardown after setup %d: %w", k, err)
			}
			e = nil
		}
		t0 := time.Now()
		var err error
		if e, err = setup(ctx, w, sp, seed, ins, filepath.Join(spill, fmt.Sprint(k)), r); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	runSenders(ctx, e.senders, ramp, 0)
	for _, s := range e.senders {
		if s.fail != nil {
			return fmt.Errorf("ramp: %w", s.fail)
		}
	}
	p := timedPhase(ctx, e.senders, dur)
	if err := ctx.Err(); err != nil {
		return err
	}
	r.cnt = p.cnt
	batch := float64(w.batch)
	r.add("points_per_s", p.sliced(func(obs, _ []sample, secs float64, _ time.Duration) float64 {
		return float64(len(obs)) * batch / secs
	}), "points/s")
	r.add("observe_p50_ms", p.sliced(func(obs, _ []sample, _ float64, _ time.Duration) float64 { return pct(obs, 0.5) }), "ms")
	r.add("observe_p90_ms", p.sliced(func(obs, _ []sample, _ float64, _ time.Duration) float64 { return pct(obs, 0.9) }), "ms")
	r.add("estimate_p50_ms", p.sliced(func(_, est []sample, _ float64, _ time.Duration) float64 { return pct(est, 0.5) }), "ms")
	r.add("estimate_p90_ms", p.sliced(func(_, est []sample, _ float64, _ time.Duration) float64 { return pct(est, 0.9) }), "ms")
	r.add("cpu_us_per_point", p.sliced(func(obs, _ []sample, _ float64, cpu time.Duration) float64 {
		return float64(cpu.Microseconds()) / (float64(len(obs)) * batch)
	}), "us")
	r.notes = append(r.notes, fmt.Sprintf("samples: observe=%d estimate=%d rows=%d elapsed_s=%.3f slices=%d; whole-phase points/s=%.1f observe_p50_ms=%.4f",
		len(p.obs), len(p.est), p.rows, p.elapsed.Seconds(), len(p.marks)-1, float64(p.rows)/p.elapsed.Seconds(), pct(p.obs, 0.5)))

	// Heap in use once the pre-generated inputs and the latency samples are
	// released: what the serving system itself holds.
	p.obs, p.est = nil, nil
	for _, s := range e.senders {
		for _, st := range s.streams {
			st.in = nil
		}
	}
	if len(e.sys.nodes) > 1 {
		// Let a standby push after the last batch prune the replicated-batch
		// buffers, so the heap is the settled cluster's, not a sample of
		// where the push cycle stood when the phase ended. Two push periods
		// always hold one whole push that started after the last batch.
		t := time.NewTimer(2*standbyPushInterval + 250*time.Millisecond)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	r.add("heap_mb", heapInUseMB(), "MB")
	r.add("setup_s", median(setupS), "s")

	gateErr := p.bad
	if err := verify(ctx, w, sp, e); err != nil {
		gateErr = errors.Join(gateErr, err)
	}
	if gateErr != nil {
		r.correct = false
		r.gate = gateErr
	}
	if p.fail != nil && !errors.Is(p.fail, errMismatch) {
		r.notes = append(r.notes, "first failure: "+p.fail.Error())
	}
	err := e.close()
	e = nil
	return err
}

// verify is the correctness gate: every stream's length on its owner equals
// what its writer saw acknowledged, and every outcome's final estimate, read
// through the client transport, is bit-identical to a shadow pool fed the
// same rows in the same batches.
func verify(ctx context.Context, w workload, sp server.Spec, e *env) error {
	var streams []*stream
	for _, s := range e.senders {
		streams = append(streams, s.streams...)
	}
	shadow, err := sp.NewPool()
	if err != nil {
		return err
	}
	var errs []error
	for _, st := range streams {
		id := st.id
		owner := e.sys.owner(id)
		if owner == nil {
			errs = append(errs, fmt.Errorf("stream %s has no owner", id))
			continue
		}
		n, ok := owner.srv.Pool().LenOK(id)
		if st.broken && ok && (n == st.off || n == st.off+w.batch) {
			st.off = n // the failed batch's fate, as the owner recorded it
		}
		if !ok || n != st.off {
			errs = append(errs, fmt.Errorf("%w: stream %s holds %d rows (known=%v) on %s, writer saw %d acknowledged", errMismatch, id, n, ok, owner.id, st.off))
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	// Replay on two workers; the pool is safe for concurrent streams.
	jobs := make(chan *stream)
	replayErrs := make([]error, 2)
	var wg sync.WaitGroup
	for k := range replayErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st := range jobs {
				if replayErrs[k] == nil {
					replayErrs[k] = replay(shadow, w, st.id, st.off)
				}
			}
		}()
	}
	for _, st := range streams {
		if ctx.Err() != nil {
			break
		}
		jobs <- st
	}
	close(jobs)
	wg.Wait()
	if err := errors.Join(append(replayErrs, ctx.Err())...); err != nil {
		return fmt.Errorf("shadow replay: %w", err)
	}
	var cnt counts
	c := e.clients[0]
	for _, st := range streams {
		id := st.id
		for o := 0; o < w.outcomes; o++ {
			got, err := c.estimate(ctx, &cnt, id, o, st.off)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			want, err := shadow.EstimateOutcome(id, o)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			if !sameBits(got, want) {
				errs = append(errs, fmt.Errorf("%w: stream %s outcome %d: served estimate differs from the shadow pool", errMismatch, id, o))
			}
		}
	}
	return errors.Join(errs...)
}

// replay feeds rows [0, n) of stream id to pool in the batches the server
// received them in.
func replay(pool *privreg.Pool, w workload, id string, n int) error {
	in := &input{id: id}
	in.xs, in.ys = genRows(w, id)
	for off := 0; off < n; off += w.batch {
		xs, ys := in.block(w, off)
		if err := poolObserve(pool, w, id, xs, ys); err != nil {
			return fmt.Errorf("stream %s at %d: %w", id, off, err)
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInUseMB forces a collection and reports the Go heap in use.
func heapInUseMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}
