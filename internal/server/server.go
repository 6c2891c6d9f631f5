// Package server is the network edge of the privreg serving stack: an
// HTTP/JSON service wrapping a privreg.Pool (one private estimator per
// stream) with batched backpressured ingestion, on-demand estimates, a
// mechanism-registry admin surface, Prometheus-style metrics, and periodic
// checkpointing with restore-on-boot.
//
// The continual-release model of the paper only pays off as a long-lived
// service — points arrive forever, estimates are released on demand — and
// this package is that service. cmd/privreg-server is the binary;
// cmd/privreg-loadgen drives it and verifies the server is bit-identical to
// an in-process Pool fed the same points.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"privreg"
	"privreg/internal/cluster"
	"privreg/internal/version"
)

// Spec describes how the served pool is constructed — mechanism plus the
// closed set of parameters the server exposes over flags and JSON. It is
// deliberately smaller than the full option surface (L2 constraint ball,
// unit-ball domain where required): everything in it round-trips through
// GET /v1/config, so a client can build a bit-identical shadow pool, which is
// how privreg-loadgen verifies the server end to end.
type Spec struct {
	// Mechanism is a registry name or alias; Validate canonicalizes it.
	Mechanism string `json:"mechanism"`
	// Epsilon, Delta are the per-stream privacy budget (ignored by the
	// nonprivate mechanism).
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	// Horizon is the per-stream horizon T.
	Horizon int `json:"horizon"`
	// Dim is the covariate dimension d.
	Dim int `json:"dim"`
	// Radius is the L2 constraint-ball radius (0 means 1).
	Radius float64 `json:"radius"`
	// Seed is the pool template seed; per-stream seeds derive from it.
	Seed int64 `json:"seed"`
	// Outcomes is the response-column count k of a multi-outcome pool: every
	// observed row carries k responses, served by k regressions sharing one
	// feature-side state. 0 or 1 serves a single outcome; values above 1
	// require a multi-outcome-capable mechanism.
	Outcomes int `json:"outcomes,omitempty"`
}

// outcomes is the normalized response-column count (always ≥ 1).
func (sp Spec) outcomes() int {
	if sp.Outcomes > 1 {
		return sp.Outcomes
	}
	return 1
}

// Validate canonicalizes the mechanism name and checks the closed parameter
// set, rejecting mechanisms the flag/JSON surface cannot express (the
// robust-projected oracle is a function, not a parameter).
func (sp *Spec) Validate() error {
	info, err := privreg.Describe(sp.Mechanism)
	if err != nil {
		return err
	}
	if info.NeedsOracle {
		return fmt.Errorf("server: mechanism %q requires a domain oracle (a Go function) and cannot be configured over the network; embed privreg.Pool directly instead", info.Name)
	}
	sp.Mechanism = info.Name
	if sp.Dim <= 0 {
		return fmt.Errorf("server: dimension must be positive, got %d", sp.Dim)
	}
	if sp.Horizon <= 0 {
		return fmt.Errorf("server: horizon must be positive, got %d", sp.Horizon)
	}
	if sp.Radius == 0 {
		sp.Radius = 1
	}
	if !(sp.Radius > 0) || math.IsInf(sp.Radius, 0) {
		return fmt.Errorf("server: constraint radius must be a positive finite number, got %v", sp.Radius)
	}
	if sp.Outcomes < 0 {
		return fmt.Errorf("server: outcome count must be non-negative, got %d", sp.Outcomes)
	}
	if sp.Outcomes > 1 && !info.MultiOutcome {
		return fmt.Errorf("server: mechanism %q serves a single outcome; outcomes=%d requires the multi-outcome mechanism", info.Name, sp.Outcomes)
	}
	return nil
}

// Options expands the spec into the option list NewPool consumes.
func (sp Spec) Options() ([]privreg.Option, error) {
	info, err := privreg.Describe(sp.Mechanism)
	if err != nil {
		return nil, err
	}
	opts := []privreg.Option{
		privreg.WithHorizon(sp.Horizon),
		privreg.WithConstraint(privreg.L2Constraint(sp.Dim, sp.Radius)),
		privreg.WithSeed(sp.Seed),
	}
	if info.Private {
		opts = append(opts, privreg.WithEpsilonDelta(sp.Epsilon, sp.Delta))
	}
	if info.NeedsDomain {
		opts = append(opts, privreg.WithDomain(privreg.UnitBallDomain(sp.Dim)))
	}
	if sp.Outcomes > 1 {
		opts = append(opts, privreg.WithOutcomes(sp.Outcomes))
	}
	return opts, nil
}

// NewPool builds a pool from the spec — the same construction the server
// performs, exported so clients (loadgen, tests) can build shadow pools.
func (sp Spec) NewPool() (*privreg.Pool, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	opts, err := sp.Options()
	if err != nil {
		return nil, err
	}
	return privreg.NewPool(sp.Mechanism, opts...)
}

// Config configures a Server.
type Config struct {
	// Spec describes the pool to serve. Required.
	Spec Spec
	// CheckpointDir is where pool state lives on disk: per-stream segment
	// files plus the manifest (the recovery root), written incrementally —
	// a checkpoint rewrites only segments of streams that changed since the
	// last one. Empty disables persistence (no restore-on-boot,
	// /v1/checkpoint returns 501).
	CheckpointDir string
	// StoreCap bounds the number of estimators resident in memory; colder
	// streams spill to CheckpointDir and fault back in transparently on
	// access, so a server with StoreCap K serves any number of streams in
	// O(K) estimator memory. 0 keeps every stream resident. Requires
	// CheckpointDir.
	StoreCap int
	// CheckpointInterval is the periodic background checkpoint cadence.
	// 0 means the 30s default; negative disables periodic checkpoints
	// (explicit /v1/checkpoint and the final drain checkpoint still work).
	CheckpointInterval time.Duration
	// MaxQueuedPoints bounds each stream's ingest queue, in points; requests
	// that would exceed it get 429. 0 means the 4096 default.
	MaxQueuedPoints int
	// Logf receives operational log lines. Nil discards them.
	Logf func(format string, args ...any)
	// Cluster, when set, makes this server one member of a serving cluster:
	// consistent-hash stream routing with request forwarding, live stream
	// handoff on membership changes, and warm-standby segment replication.
	// Nil serves standalone.
	Cluster *ClusterConfig
}

const (
	defaultCheckpointInterval = 30 * time.Second
	defaultMaxQueuedPoints    = 4096
)

// Server is the HTTP serving layer over one Pool. Build it with New, mount
// Handler on an http.Server (or use Run), and Close it to drain: in-flight
// and queued observations are applied, a final checkpoint is written, and
// further ingestion is rejected with 503.
type Server struct {
	spec Spec
	pool *privreg.Pool
	ing  *ingester
	ckpt *checkpointer // nil when persistence is disabled
	met  *metrics
	mux  *http.ServeMux
	logf func(format string, args ...any)
	cl   *clusterState // nil when serving standalone

	stopPeriodic chan struct{}

	// Wire front-end state (see wire.go): live listeners and connections, and
	// the WaitGroup Close uses to wait for every connection's ack pump.
	wireMu        sync.Mutex
	wireListeners []net.Listener
	wireConns     map[net.Conn]struct{}
	wireWg        sync.WaitGroup

	closing   atomic.Bool // set before the drain starts, so healthz flips to 503 immediately
	closeOnce sync.Once
	closeErr  error
}

// New builds the pool from cfg.Spec, restores the on-disk checkpoint if one
// exists, and wires the routes. The returned server is serving-ready;
// periodic checkpointing (if enabled) is already running.
func New(cfg Config) (*Server, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.StoreCap < 0 {
		return nil, fmt.Errorf("server: store cap must be non-negative, got %d", cfg.StoreCap)
	}
	if cfg.StoreCap > 0 && cfg.CheckpointDir == "" {
		return nil, errors.New("server: a store cap requires a checkpoint directory (evicted streams spill there)")
	}
	opts, err := cfg.Spec.Options()
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointDir != "" {
		// With persistence enabled the pool runs on the disk-backed stream
		// store: segment spill/fault-in under the residency cap, incremental
		// checkpoints, and lazy manifest restore at construction time.
		opts = append(opts, privreg.WithSpillDir(cfg.CheckpointDir))
		if cfg.StoreCap > 0 {
			opts = append(opts, privreg.WithStoreCap(cfg.StoreCap))
		}
	}
	pool, err := privreg.NewPool(cfg.Spec.Mechanism, opts...)
	if err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	maxPoints := cfg.MaxQueuedPoints
	if maxPoints <= 0 {
		maxPoints = defaultMaxQueuedPoints
	}
	s := &Server{
		spec:         cfg.Spec,
		pool:         pool,
		met:          newMetrics(),
		logf:         logf,
		stopPeriodic: make(chan struct{}),
	}
	s.ing = newIngester(pool, cfg.Spec.Dim, maxPoints, s.met)
	if cfg.Cluster != nil {
		cl, err := newClusterState(s, cfg.Cluster)
		if err != nil {
			return nil, err
		}
		s.cl = cl
		s.ing.sealed = cl.isSealed
	}
	if cfg.CheckpointDir != "" {
		s.ckpt = &checkpointer{pool: pool, dir: cfg.CheckpointDir, met: s.met, logf: logf}
		if n := s.ckpt.restore(); n > 0 {
			logf("restored %d streams from %s (lazy: state faults in on first access)", n, s.ckpt.path())
		}
		interval := cfg.CheckpointInterval
		if interval == 0 {
			interval = defaultCheckpointInterval
		}
		if interval > 0 {
			go s.ckpt.run(interval, s.stopPeriodic)
		}
	}
	if s.cl != nil {
		s.cl.startReplication(cfg.Cluster.ReplicationInterval)
		s.cl.startMembership(cfg.Cluster)
		s.ing.applied = s.cl.replicateBatch
	}
	s.routes()
	return s, nil
}

// JoinCluster asks a member of an existing cluster (an HTTP base URL like
// "http://host:port") to admit this node. The coordinator moves every stream
// the grown ring assigns to this node — with full estimator state, so the
// move is invisible in the output sequence — before the join returns. Until
// then this node answers data-plane requests with retryable rejections.
func (s *Server) JoinCluster(peer string) error {
	if s.cl == nil {
		return errors.New("server: not clustered; configure Config.Cluster first")
	}
	return s.cl.join(peer)
}

// Ring returns the cluster ring this node currently routes by, or nil when
// serving standalone.
func (s *Server) Ring() *cluster.Ring {
	if s.cl == nil {
		return nil
	}
	return s.cl.Ring()
}

// Handler returns the server's HTTP handler (all /v1, /healthz, /metrics
// routes).
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the served pool (read-mostly uses: stats, tests).
func (s *Server) Pool() *privreg.Pool { return s.pool }

// Close drains the server: stops periodic checkpointing, applies every
// queued observation (new ones are rejected with 503), and writes a final
// checkpoint so a restart resumes bit-identically. Idempotent; concurrent
// callers block until the first drain completes and share its result. The
// draining flag flips before the drain starts, so healthz reports 503
// immediately rather than after the last queue empties.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		close(s.stopPeriodic)
		// Wire intake stops first (no new frames enter the ingester), then the
		// drain applies everything already queued, then the ack pumps — which
		// the drain unblocked — flush their owed responses and hang up.
		s.closeWireIntake()
		s.ing.drain()
		s.wireWg.Wait()
		if s.cl != nil {
			// Leave after the drain (every acked point is in the pool, so the
			// exported segments are complete) and before the final checkpoint
			// (what we keep on disk is whatever could not be handed off).
			// Membership stops first so this node's own graceful exit is never
			// mistaken for a death it should react to.
			s.cl.stopMembership()
			s.cl.stopReplication()
			if err := s.cl.leave(); err != nil {
				s.logf("cluster: leave handoff incomplete: %v (survivors fall back to warm standbys)", err)
			}
			s.cl.closeClients()
		}
		if s.ckpt != nil {
			fs, secs, err := s.ckpt.save()
			if err != nil {
				s.closeErr = fmt.Errorf("server: final checkpoint: %w", err)
				return
			}
			s.logf("final checkpoint: %d dirty segments (%d bytes) + manifest in %.3fs", fs.Segments, fs.SegmentBytes, secs)
		}
	})
	return s.closeErr
}

// draining reports whether Close has begun (used by healthz so load
// balancers stop routing during drain).
func (s *Server) draining() bool { return s.closing.Load() }

// Run serves on addr until ctx is cancelled, then shuts down gracefully:
// stop accepting connections, finish in-flight requests, drain queues, and
// write the final checkpoint.
func (s *Server) Run(ctx context.Context, addr string) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	s.logf("serving %q pool on %s", s.spec.Mechanism, addr)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.logf("shutdown requested, draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Close must run even when Shutdown times out on a slow client: the drain
	// and final checkpoint are what make the acked observations durable.
	shutdownErr := hs.Shutdown(shutdownCtx)
	if err := s.Close(); err != nil {
		return err
	}
	return shutdownErr
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /v1/config", s.instrument("config", s.handleConfig))
	s.mux.HandleFunc("GET /v1/mechanisms", s.instrument("mechanisms", s.handleMechanisms))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("POST /v1/checkpoint", s.instrument("checkpoint", s.handleCheckpoint))
	s.mux.HandleFunc("GET /v1/streams", s.instrument("streams", s.handleStreams))
	s.mux.HandleFunc("POST /v1/streams/{id}/observe", s.instrument("observe", s.handleObserve))
	s.mux.HandleFunc("GET /v1/streams/{id}/estimate", s.instrument("estimate", s.handleEstimate))
	s.mux.HandleFunc("GET /v1/streams/{id}/stats", s.instrument("stream_stats", s.handleStreamStats))
	s.mux.HandleFunc("DELETE /v1/streams/{id}", s.instrument("drop", s.handleDrop))
	if s.cl != nil {
		s.mux.HandleFunc("GET /v1/ring", s.instrument("ring", s.cl.handleRing))
		s.mux.HandleFunc("GET /v1/cluster/members", s.instrument("cluster_members", s.cl.handleMembers))
		s.mux.HandleFunc("POST /v1/cluster/ring", s.instrument("cluster_ring", s.cl.handleClusterRing))
		s.mux.HandleFunc("POST /v1/cluster/join", s.instrument("cluster_join", s.cl.handleClusterJoin))
		s.mux.HandleFunc("POST /v1/cluster/handoff", s.instrument("cluster_handoff", s.cl.handleClusterHandoff))
		s.mux.HandleFunc("POST /v1/cluster/import", s.instrument("cluster_import", s.cl.handleClusterImport))
	}
}

// statusWriter captures the status code for request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request counting and latency observation.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.met.observeRequest(route, sw.code, time.Since(start).Seconds())
	}
}

// jsonBufPool recycles response-encoding buffers: every response is encoded
// into a pooled buffer and written with a single Write, instead of letting
// the encoder allocate and chunk through the ResponseWriter per request.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufPool.Put(buf)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
	jsonBufPool.Put(buf)
}

type observeResponse struct {
	Applied int `json:"applied"`
	Len     int `json:"len"`
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, errors.New("server: empty stream id"))
		return
	}
	sc := observeScratchPool.Get().(*observeScratch)
	defer observeScratchPool.Put(sc)
	xs, ys, from, err := s.readObserve(sc, w, r)
	if err != nil {
		// A request bigger than the whole queue bound can never be
		// accepted — that is a permanent 413, not a retryable 429.
		code := http.StatusBadRequest
		if errors.Is(err, errTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err)
		return
	}
	if s.cl != nil && s.cl.routeObserve(w, id, xs, ys, from) {
		return
	}
	// The rejection path is one shared verdict (classify): status,
	// Retry-After hint (backlog-derived and jittered for queue-full), and
	// envelope code all come from the same table the wire front end nacks
	// through.
	applied, err := s.ing.enqueue(id, xs, ys, from)
	if err != nil {
		writeVerdict(w, err)
		return
	}
	n, _ := s.pool.LenOK(id)
	writeJSON(w, http.StatusOK, observeResponse{Applied: applied, Len: n})
}

type estimateResponse struct {
	Estimate []float64 `json:"estimate"`
	Len      int       `json:"len"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	outcome := 0
	if q := r.URL.Query().Get("outcome"); q != "" {
		i, err := strconv.Atoi(q)
		if err != nil || i < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("server: outcome must be a non-negative index, got %q", q))
			return
		}
		if k := s.spec.outcomes(); i >= k {
			writeError(w, http.StatusBadRequest, fmt.Errorf("server: outcome index %d out of range; pool serves %d outcomes", i, k))
			return
		}
		outcome = i
	}
	if s.cl != nil && s.cl.routeEstimate(w, id, outcome) {
		return
	}
	theta, err := s.pool.EstimateOutcome(id, outcome)
	switch {
	case err == nil:
		n, _ := s.pool.LenOK(id)
		writeJSON(w, http.StatusOK, estimateResponse{Estimate: theta, Len: n})
	case errors.Is(err, privreg.ErrUnknownStream):
		writeError(w, http.StatusNotFound, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

type streamStatsResponse struct {
	ID  string `json:"id"`
	Len int    `json:"len"`
	// StateBytes is the stream's retained in-memory state (0 while spilled).
	StateBytes int64 `json:"state_bytes"`
}

func (s *Server) handleStreamStats(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	n, ok := s.pool.LenOK(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w %q", privreg.ErrUnknownStream, id))
		return
	}
	b, _ := s.pool.StateBytes(id)
	writeJSON(w, http.StatusOK, streamStatsResponse{ID: id, Len: n, StateBytes: b})
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	writeJSON(w, http.StatusOK, map[string]bool{"dropped": s.pool.Drop(id)})
}

func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	ids := s.pool.Streams()
	writeJSON(w, http.StatusOK, map[string]any{"count": len(ids), "streams": ids})
}

// statsResponse embeds the pool stats (flat, capitalized keys — scripted
// consumers grep them) and annotates the serving build and, when clustered,
// the node's view of the ring.
type statsResponse struct {
	privreg.PoolStats
	Version string          `json:"version"`
	Cluster *clusterStatsVM `json:"cluster,omitempty"`
}

type clusterStatsVM struct {
	Node        string `json:"node"`
	RingVersion uint64 `json:"ring_version"`
	Members     int    `json:"members"`
	Replicas    int    `json:"replicas"`
	Importing   bool   `json:"importing"`
	// Standby counts streams this node holds as warm-standby copies (not
	// owned; promoted to authoritative if their owner dies).
	Standby int `json:"standby_streams"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{PoolStats: s.pool.Stats(), Version: version.Version}
	if s.cl != nil {
		ring := s.cl.Ring()
		resp.Cluster = &clusterStatsVM{
			Node:        s.cl.self.ID,
			RingVersion: ring.Version(),
			Members:     ring.Len(),
			Replicas:    ring.Replicas(),
			Importing:   s.cl.importing.Load() > 0,
			Standby:     resp.PoolStats.StandbyStreams,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.spec)
}

func (s *Server) handleMechanisms(w http.ResponseWriter, r *http.Request) {
	infos := make([]privreg.MechanismInfo, 0, len(privreg.Mechanisms()))
	for _, name := range privreg.Mechanisms() {
		info, err := privreg.Describe(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"mechanisms": infos})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.ckpt == nil {
		writeError(w, http.StatusNotImplemented, errors.New("server: checkpointing is disabled (no checkpoint directory configured)"))
		return
	}
	fs, secs, err := s.ckpt.save()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"segments":       fs.Segments,
		"segment_bytes":  fs.SegmentBytes,
		"manifest_bytes": fs.ManifestBytes,
		"streams":        fs.Streams,
		"seconds":        secs,
		"path":           s.ckpt.path(),
	})
}

// handleHealthz is pure liveness: 200 whenever the process can answer,
// including during a graceful drain (killing a draining process would lose
// the handoff and the final checkpoint). Routability lives in /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"status":    "ok",
		"mechanism": s.spec.Mechanism,
		"version":   version.Version,
	})
}

// handleReadyz is readiness: 503 while draining or while importing handoff
// segments (mid-join, or inside an import window), so load balancers stop
// routing to a node that would only answer with retryable rejections.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.cl != nil && s.cl.importing.Load() > 0:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "importing"})
	default:
		body := map[string]any{"status": "ready"}
		if s.cl != nil {
			body["ring_version"] = s.cl.Ring().Version()
			body["node"] = s.cl.self.ID
			if s.cl.mem != nil {
				// The local member's view of the cluster: how many peers it
				// believes alive/suspect/dead right now, so an LB health page
				// shows partitions from this node's perspective.
				body["members"] = s.cl.mem.counts()
			}
		}
		writeJSON(w, http.StatusOK, body)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, s.met.snapshot(st))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.writePrometheus(w, st)
}
