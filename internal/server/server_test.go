package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"privreg"
	"privreg/internal/store"
	"privreg/internal/wire"
)

func testSpec() Spec {
	return Spec{
		Mechanism: "gradient",
		Epsilon:   1,
		Delta:     1e-6,
		Horizon:   64,
		Dim:       4,
		Radius:    1,
		Seed:      42,
	}
}

// newTestServer builds a Server (periodic checkpointing off unless dir given)
// and registers cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Spec == (Spec{}) {
		cfg.Spec = testSpec()
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = -1
	}
	cfg.Logf = t.Logf
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = s.Close() })
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s %s response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func observeBody(xs [][]float64, ys []float64) map[string]any {
	return map[string]any{"xs": xs, "ys": ys}
}

func point(i, dim int) ([]float64, float64) {
	x := make([]float64, dim)
	x[i%dim] = 0.8
	x[(i+1)%dim] = -0.3
	return x, 0.5 * x[i%dim]
}

// shadowObserve feeds one point to a reference pool through its flat entry.
func shadowObserve(p *privreg.Pool, id string, x []float64, y float64) error {
	return p.ObserveFlat(id, len(x), x, []float64{y})
}

// flatRows packs covariate rows row-major, the ingester's layout.
func flatRows(xs ...[]float64) []float64 {
	var flat []float64
	for _, x := range xs {
		flat = append(flat, x...)
	}
	return flat
}

func TestObserveEstimateStats(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// Single-point form.
	x, y := point(0, 4)
	var obs observeResponse
	code, raw := doJSON(t, "POST", ts.URL+"/v1/streams/alice/observe", map[string]any{"x": x, "y": y}, &obs)
	if code != http.StatusOK || obs.Applied != 1 || obs.Len != 1 {
		t.Fatalf("single observe: code=%d body=%s", code, raw)
	}

	// Batch form.
	var xs [][]float64
	var ys []float64
	for i := 1; i < 5; i++ {
		xi, yi := point(i, 4)
		xs = append(xs, xi)
		ys = append(ys, yi)
	}
	code, raw = doJSON(t, "POST", ts.URL+"/v1/streams/alice/observe", observeBody(xs, ys), &obs)
	if code != http.StatusOK || obs.Applied != 4 || obs.Len != 5 {
		t.Fatalf("batch observe: code=%d body=%s", code, raw)
	}

	var est estimateResponse
	code, raw = doJSON(t, "GET", ts.URL+"/v1/streams/alice/estimate", nil, &est)
	if code != http.StatusOK || est.Len != 5 || len(est.Estimate) != 4 {
		t.Fatalf("estimate: code=%d body=%s", code, raw)
	}

	var st streamStatsResponse
	code, _ = doJSON(t, "GET", ts.URL+"/v1/streams/alice/stats", nil, &st)
	if code != http.StatusOK || st.Len != 5 || st.ID != "alice" {
		t.Fatalf("stream stats: code=%d %+v", code, st)
	}
	if want, _ := s.Pool().StateBytes("alice"); st.StateBytes <= 0 || st.StateBytes != want || want != s.Pool().Stats().RetainedBytes {
		t.Fatalf("stream stats state_bytes = %d, want the stream's retained bytes %d (pool total %d)",
			st.StateBytes, want, s.Pool().Stats().RetainedBytes)
	}

	var listing struct {
		Count   int      `json:"count"`
		Streams []string `json:"streams"`
	}
	code, _ = doJSON(t, "GET", ts.URL+"/v1/streams", nil, &listing)
	if code != http.StatusOK || listing.Count != 1 || listing.Streams[0] != "alice" {
		t.Fatalf("streams listing: code=%d %+v", code, listing)
	}

	var dropped map[string]bool
	code, _ = doJSON(t, "DELETE", ts.URL+"/v1/streams/alice", nil, &dropped)
	if code != http.StatusOK || !dropped["dropped"] {
		t.Fatalf("drop: code=%d %+v", code, dropped)
	}
	code, _ = doJSON(t, "GET", ts.URL+"/v1/streams/alice/estimate", nil, nil)
	if code != http.StatusNotFound {
		t.Fatalf("estimate after drop: code=%d, want 404", code)
	}
}

// postRaw posts body verbatim, for bodies json.Marshal would reject or
// reformat.
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

func TestObserveValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/streams/v/observe"

	for name, body := range observeValidationBodies {
		if code, raw := postRaw(t, url, body); code != http.StatusBadRequest {
			t.Errorf("%s: code=%d body=%s, want 400", name, code, raw)
		}
	}
	// Nothing got ingested.
	var listing struct {
		Count int `json:"count"`
	}
	if _, _ = doJSON(t, "GET", ts.URL+"/v1/streams", nil, &listing); listing.Count != 0 {
		t.Fatalf("invalid requests created %d streams", listing.Count)
	}
}

func TestOversizedBatch413(t *testing.T) {
	// A single request larger than the per-stream queue bound can never be
	// accepted — that is a permanent 413, not a retryable 429. So is a body
	// longer than such a batch can need, even when its rows would fit: the
	// body is bounded before it is buffered.
	_, ts := newTestServer(t, Config{MaxQueuedPoints: 2})
	var xs [][]float64
	var ys []float64
	for i := 0; i < 3; i++ {
		x, y := point(i, 4)
		xs = append(xs, x)
		ys = append(ys, y)
	}
	url := ts.URL + "/v1/streams/big/observe"
	code, raw := doJSON(t, "POST", url, observeBody(xs, ys), nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized request: code=%d body=%s, want 413", code, raw)
	}
	padded := `{"x":[1,0,0,0],"y":1` + strings.Repeat(" ", int(observeBodyLimit(2, 4, 1))) + `}`
	if code, raw := postRaw(t, url, padded); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: code=%d body=%s, want 413", code, raw)
	}
	// The stream was never created.
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/streams/big/stats", nil, nil); code != http.StatusNotFound {
		t.Fatalf("rejected request created the stream (stats code=%d)", code)
	}
	// A fitting batch on the same stream still lands.
	if code, raw := doJSON(t, "POST", url, observeBody(xs[:2], ys[:2]), nil); code != http.StatusOK {
		t.Fatalf("fitting batch: code=%d body=%s", code, raw)
	}
}

func TestIngesterQueueFull429(t *testing.T) {
	// White-box test of the transient queue-full path: simulate a busy
	// drainer by pre-marking the queue active, fill the queue to its bound,
	// and check the next request bounces with errQueueFull; then run a real
	// drainer and check the queued work still lands.
	pool, err := testSpec().NewPool()
	if err != nil {
		t.Fatal(err)
	}
	in := newIngester(pool, 4, 2, newMetrics())
	q := &streamQueue{active: true} // pretend a drainer owns the queue
	in.queues["s"] = q

	done := make(chan error, 1)
	x0, y0 := point(0, 4)
	x1, y1 := point(1, 4)
	go func() {
		_, err := in.enqueue("s", flatRows(x0, x1), []float64{y0, y1}, -1)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		points := q.points
		q.mu.Unlock()
		if points == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("enqueue never queued its points")
		}
		time.Sleep(time.Millisecond)
	}

	x2, y2 := point(2, 4)
	if _, err := in.enqueue("s", x2, []float64{y2}, -1); !errors.Is(err, errQueueFull) {
		t.Fatalf("enqueue on a full queue = %v, want errQueueFull", err)
	}

	// Release: attach a real drainer to the parked queue.
	in.wg.Add(1)
	go in.drainQueue("s", q)
	if err := <-done; err != nil {
		t.Fatalf("queued request failed after drain: %v", err)
	}
	if got, _ := pool.LenOK("s"); got != 2 {
		t.Fatalf("pool holds %d points, want 2", got)
	}
	in.drain()
}

func TestIngesterRetiresIdleQueues(t *testing.T) {
	// After the drainer finishes, the ingester must hold no per-stream state
	// (the queue map would otherwise grow with every stream ID ever seen).
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		x, y := point(i, 4)
		if code, _ := doJSON(t, "POST", ts.URL+fmt.Sprintf("/v1/streams/q%d/observe", i), map[string]any{"x": x, "y": y}, nil); code != http.StatusOK {
			t.Fatal("observe failed")
		}
	}
	// Acks are post-application, so by now each drainer has nothing pending;
	// retirement races only with the drainer's own exit — give it a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.ing.mu.Lock()
		n := len(s.ing.queues)
		s.ing.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d idle queues never retired", n)
		}
		time.Sleep(time.Millisecond)
	}
	// The streams themselves are intact.
	if got := s.Pool().Stats().Streams; got != 3 {
		t.Fatalf("streams = %d, want 3", got)
	}
}

func TestHorizonOverrun409(t *testing.T) {
	spec := testSpec()
	spec.Horizon = 3
	_, ts := newTestServer(t, Config{Spec: spec})
	for i := 0; i < 3; i++ {
		x, y := point(i, 4)
		if code, raw := doJSON(t, "POST", ts.URL+"/v1/streams/full/observe", map[string]any{"x": x, "y": y}, nil); code != http.StatusOK {
			t.Fatalf("observe %d: code=%d body=%s", i, code, raw)
		}
	}
	x, y := point(3, 4)
	code, raw := doJSON(t, "POST", ts.URL+"/v1/streams/full/observe", map[string]any{"x": x, "y": y}, nil)
	if code != http.StatusConflict {
		t.Fatalf("overrun observe: code=%d body=%s, want 409", code, raw)
	}
}

// TestRejectedFirstBatchCreatesNoStream checks that a first batch the
// mechanism rejects (here past the horizon) leaves no stream, over HTTP (409,
// then 404 from the stream's stats) and over the binary wire (stream-full
// nack), and that the same IDs then start normally.
func TestRejectedFirstBatchCreatesNoStream(t *testing.T) {
	spec := testSpec()
	spec.Horizon = 3
	s, ts := newTestServer(t, Config{Spec: spec})
	var xs [][]float64
	var ys []float64
	for i := 0; i < 4; i++ {
		x, y := point(i, 4)
		xs = append(xs, x)
		ys = append(ys, y)
	}
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/streams/h/observe", observeBody(xs, ys), nil); code != http.StatusConflict {
		t.Fatalf("over-horizon first batch: code=%d body=%s, want 409", code, raw)
	}
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/streams/h/stats", nil, nil); code != http.StatusNotFound {
		t.Fatalf("stats after a rejected first batch: code=%d body=%s, want 404", code, raw)
	}
	c := dialWire(t, startWire(t, s))
	flat := make([]float64, 0, 16)
	for _, x := range xs {
		flat = append(flat, x...)
	}
	if _, _, err := c.Observe("w", flat, ys); err == nil {
		t.Fatal("over-horizon first batch accepted over wire")
	} else {
		var ne *wire.NackError
		if !errors.As(err, &ne) || ne.Code != wire.NackStreamFull {
			t.Fatalf("over-horizon first batch over wire: %v", err)
		}
	}
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/streams/w/stats", nil, nil); code != http.StatusNotFound {
		t.Fatalf("stats after a rejected wire batch: code=%d body=%s, want 404", code, raw)
	}
	if st := s.Pool().Stats(); st.Streams != 0 || st.DirtyStreams != 0 {
		t.Fatalf("pool after rejected first batches: %+v", st)
	}
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/streams/h/observe", observeBody(xs[:3], ys[:3]), nil); code != http.StatusOK {
		t.Fatalf("fitting batch: code=%d body=%s", code, raw)
	}
	if _, n, err := c.Observe("w", flat[:12], ys[:3]); err != nil || n != 3 {
		t.Fatalf("fitting wire batch: len %d, %v", n, err)
	}
}

func TestDrainRejectsWith503(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	x, y := point(0, 4)
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/d/observe", map[string]any{"x": x, "y": y}, nil); code != http.StatusOK {
		t.Fatal("pre-drain observe failed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/d/observe", map[string]any{"x": x, "y": y}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain observe should 503, got %d", code)
	}
	// Liveness stays up through the drain (killing a draining process would
	// lose the final checkpoint); readiness is what flips to 503.
	if code, _ := doJSON(t, "GET", ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("post-drain healthz (liveness) should stay 200, got %d", code)
	}
	if code, raw := doJSON(t, "GET", ts.URL+"/readyz", nil, nil); code != http.StatusServiceUnavailable || !strings.Contains(raw, "draining") {
		t.Fatalf("post-drain readyz should 503/draining, got %d %s", code, raw)
	}
	// Reads still work during/after drain.
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/streams/d/estimate", nil, nil); code != http.StatusOK {
		t.Fatalf("post-drain estimate should still serve, got %d", code)
	}
}

func TestAdminEndpoints(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CheckpointDir: dir})

	var health map[string]string
	if code, _ := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %v %v", code, health)
	}

	var spec Spec
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/config", nil, &spec); code != http.StatusOK || spec != testSpec() {
		t.Fatalf("config: %+v", spec)
	}

	var mechs struct {
		Mechanisms []struct {
			Name    string `json:"Name"`
			Private bool   `json:"Private"`
		} `json:"mechanisms"`
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/mechanisms", nil, &mechs); code != http.StatusOK || len(mechs.Mechanisms) != 7 {
		t.Fatalf("mechanisms: code=%d got %d entries", code, len(mechs.Mechanisms))
	}
	if mechs.Mechanisms[0].Name != "gradient" || !mechs.Mechanisms[0].Private {
		t.Fatalf("mechanism listing malformed: %+v", mechs.Mechanisms[0])
	}

	x, y := point(0, 4)
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/a/observe", map[string]any{"x": x, "y": y}, nil); code != http.StatusOK {
		t.Fatal("observe failed")
	}

	var ck map[string]any
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/checkpoint", nil, &ck); code != http.StatusOK || ck["segment_bytes"].(float64) <= 0 || ck["segments"].(float64) != 1 {
		t.Fatalf("checkpoint: code=%d body=%s", code, raw)
	}
	if _, err := os.Stat(filepath.Join(dir, store.ManifestFile)); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	// A second checkpoint with no traffic in between rewrites nothing.
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/checkpoint", nil, &ck); code != http.StatusOK || ck["segments"].(float64) != 0 {
		t.Fatalf("idle checkpoint: code=%d body=%s", code, raw)
	}

	var stats struct {
		Mechanism    string `json:"Mechanism"`
		Streams      int    `json:"Streams"`
		Observations int64  `json:"Observations"`
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK || stats.Streams != 1 || stats.Observations != 1 || stats.Mechanism != "gradient" {
		t.Fatalf("stats: %+v", stats)
	}

	_ = s
}

func TestCheckpointDisabled501(t *testing.T) {
	_, ts := newTestServer(t, Config{}) // no CheckpointDir
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/checkpoint", nil, nil); code != http.StatusNotImplemented {
		t.Fatalf("checkpoint without dir: code=%d, want 501", code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	x, y := point(0, 4)
	doJSON(t, "POST", ts.URL+"/v1/streams/m/observe", map[string]any{"x": x, "y": y}, nil)
	doJSON(t, "GET", ts.URL+"/v1/streams/m/estimate", nil, nil)
	doJSON(t, "GET", ts.URL+"/v1/streams/nope/estimate", nil, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`privreg_requests_total{route="observe",code="200"} 1`,
		`privreg_requests_total{route="estimate",code="200"} 1`,
		`privreg_requests_total{route="estimate",code="404"} 1`,
		`privreg_ingested_points_total 1`,
		`privreg_streams{mechanism="gradient"} 1`,
		`privreg_observations_total{mechanism="gradient"} 1`,
		`privreg_request_seconds_bucket{route="observe",le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	var snap metricsSnapshot
	if code, _ := doJSON(t, "GET", ts.URL+"/metrics?format=json", nil, &snap); code != http.StatusOK {
		t.Fatal("json metrics failed")
	}
	if snap.Ingest.Points != 1 || snap.Pool.Streams != 1 || snap.Pool.Mechanism != "gradient" {
		t.Fatalf("metrics snapshot: %+v", snap)
	}
	if snap.Requests["observe/200"] != 1 {
		t.Fatalf("request counters: %+v", snap.Requests)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"unknown mechanism", Spec{Mechanism: "nope", Horizon: 8, Dim: 2}},
		{"oracle mechanism", Spec{Mechanism: "robust-projected", Epsilon: 1, Delta: 1e-6, Horizon: 8, Dim: 2}},
		{"zero dim", Spec{Mechanism: "gradient", Epsilon: 1, Delta: 1e-6, Horizon: 8}},
		{"zero horizon", Spec{Mechanism: "gradient", Epsilon: 1, Delta: 1e-6, Dim: 2}},
		{"negative radius", Spec{Mechanism: "gradient", Epsilon: 1, Delta: 1e-6, Horizon: 8, Dim: 2, Radius: -1}},
		{"bad budget", Spec{Mechanism: "gradient", Epsilon: -1, Delta: 1e-6, Horizon: 8, Dim: 2}},
	}
	for _, tc := range cases {
		if _, err := New(Config{Spec: tc.spec, CheckpointInterval: -1}); err == nil {
			t.Errorf("%s: New accepted invalid spec %+v", tc.name, tc.spec)
		}
	}

	// Aliases canonicalize.
	sp := Spec{Mechanism: "reg1", Epsilon: 1, Delta: 1e-6, Horizon: 8, Dim: 2}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Mechanism != "gradient" || sp.Radius != 1 {
		t.Fatalf("Validate did not canonicalize: %+v", sp)
	}

	// The nonprivate mechanism needs no budget.
	np := Spec{Mechanism: "nonprivate", Horizon: 8, Dim: 2}
	if _, err := np.NewPool(); err != nil {
		t.Fatalf("nonprivate spec: %v", err)
	}
}

func TestPeriodicCheckpointing(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CheckpointDir: dir, CheckpointInterval: 20 * time.Millisecond})
	x, y := point(0, 4)
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/streams/p/observe", map[string]any{"x": x, "y": y}, nil); code != http.StatusOK {
		t.Fatal("observe failed")
	}
	path := filepath.Join(dir, store.ManifestFile)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpoint never appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The written manifest restores into a fresh pool opened over the same
	// directory: the stream registers lazily and its state faults in intact.
	opts, err := testSpec().Options()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := privreg.NewPool(testSpec().Mechanism, append(opts, privreg.WithSpillDir(dir))...)
	if err != nil {
		t.Fatalf("periodic checkpoint not restorable: %v", err)
	}
	if n, ok := fresh.LenOK("p"); !ok || n != 1 {
		t.Fatalf("restored stream p: len=%d ok=%v", n, ok)
	}
	if _, err := fresh.Estimate("p"); err != nil {
		t.Fatalf("restored stream p does not estimate: %v", err)
	}
	_ = s
}

// TestRetryAfterDerivedFromBacklog pins the 429 hint contract: the value is
// backlog ÷ drain-rate seconds with jitter, always an integer in
// [minRetryAfter, maxRetryAfter], and larger backlogs at the same rate never
// produce a systematically smaller hint range.
func TestRetryAfterDerivedFromBacklog(t *testing.T) {
	pool, err := testSpec().NewPool()
	if err != nil {
		t.Fatal(err)
	}
	in := newIngester(pool, 4, 64, newMetrics())

	in.rateMu.Lock()
	in.applyRate = 100 // points/sec
	in.rateMu.Unlock()
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		qf := in.retryAfter(400) // 4s of backlog at 100 points/sec
		if qf.retryAfter < 4 || qf.retryAfter > 8 {
			t.Fatalf("retryAfter(400 @ 100/s) = %d, want within jittered [4, 8]", qf.retryAfter)
		}
		seen[qf.retryAfter] = true
		if !errors.Is(qf, errQueueFull) {
			t.Fatal("queueFullError does not match errQueueFull")
		}
	}
	if len(seen) < 2 {
		t.Fatalf("no jitter: every rejection hinted %v", seen)
	}
	// With other streams draining concurrently, the pool-wide rate is split
	// across them: the same backlog at the same global rate yields a
	// proportionally longer hint.
	in.mu.Lock()
	for i := 0; i < 4; i++ {
		in.queues[fmt.Sprintf("busy-%d", i)] = &streamQueue{active: true}
	}
	in.mu.Unlock()
	if qf := in.retryAfter(400); qf.retryAfter < 16 {
		// 400 points at 100/s split 4 ways → ≥16s before jitter.
		t.Fatalf("retryAfter with 4 active streams = %d, want >= 16", qf.retryAfter)
	}
	in.mu.Lock()
	in.queues = make(map[string]*streamQueue)
	in.mu.Unlock()

	// With no rate observed yet the hint falls back to the 1–2s floor.
	in.rateMu.Lock()
	in.applyRate = 0
	in.rateMu.Unlock()
	for i := 0; i < 50; i++ {
		// base 1s, multiplicative jitter up to 1.5x, additive up to 1s → [1, 3].
		if qf := in.retryAfter(1000); qf.retryAfter < minRetryAfter || qf.retryAfter > 3 {
			t.Fatalf("retryAfter with unknown rate = %d", qf.retryAfter)
		}
	}
	// A huge backlog clamps at the ceiling rather than telling clients to
	// come back in an hour.
	in.rateMu.Lock()
	in.applyRate = 0.001
	in.rateMu.Unlock()
	if qf := in.retryAfter(10000); qf.retryAfter != maxRetryAfter {
		t.Fatalf("retryAfter clamp = %d, want %d", qf.retryAfter, maxRetryAfter)
	}
}

// TestRetryAfterHeaderOn429 drives the HTTP path: a queue-full rejection must
// carry a parseable, positive Retry-After header (no longer the hard-coded 1).
func TestRetryAfterHeaderOn429(t *testing.T) {
	pool, err := testSpec().NewPool()
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{MaxQueuedPoints: 2})
	_ = pool
	// Park a fake busy drainer so enqueued points pile up (same technique as
	// TestIngesterQueueFull429), then overflow over HTTP.
	q := &streamQueue{active: true}
	s.ing.mu.Lock()
	s.ing.queues["jam"] = q
	s.ing.mu.Unlock()
	x0, y0 := point(0, 4)
	go func() {
		_, _ = s.ing.enqueue("jam", flatRows(x0, x0), []float64{y0, y0}, -1)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		n := q.points
		q.mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	x, y := point(1, 4)
	body, _ := json.Marshal(map[string]any{"x": x, "y": y})
	resp, err := http.Post(ts.URL+"/v1/streams/jam/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow observe: code=%d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < minRetryAfter || ra > maxRetryAfter {
		t.Fatalf("Retry-After = %q, want integer in [%d, %d]", resp.Header.Get("Retry-After"), minRetryAfter, maxRetryAfter)
	}
	// Unjam so Close can drain.
	s.ing.wg.Add(1)
	go s.ing.drainQueue("jam", q)
}

// TestServerStoreCapBoundsResidency boots a server with a resident cap far
// below its stream count and verifies (a) the cap holds, (b) every stream —
// resident or spilled — still serves estimates bit-identical to a fully
// resident shadow pool, and (c) the residency surface shows up in stats and
// metrics.
func TestServerStoreCapBoundsResidency(t *testing.T) {
	const (
		nStreams = 12
		cap      = 3
		points   = 6
	)
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CheckpointDir: dir, StoreCap: cap})
	streams := make([]string, nStreams)
	for i := range streams {
		streams[i] = fmt.Sprintf("cap-%02d", i)
	}
	driveHTTP(t, ts.URL, streams, 0, points, 4, 3)

	shadow, err := testSpec().NewPool()
	if err != nil {
		t.Fatal(err)
	}
	feedShadow(t, shadow, streams, points, 4)
	compareEstimates(t, ts.URL, shadow, streams, points, "capped")

	var stats privreg.PoolStats
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: code=%d body=%s", code, raw)
	}
	if stats.Streams != nStreams || stats.Resident > cap || stats.Spilled < nStreams-cap {
		t.Fatalf("residency stats = %+v, want %d streams with resident <= %d", stats, nStreams, cap)
	}
	if stats.Evictions == 0 || stats.FaultIns == 0 {
		t.Fatalf("expected eviction/fault-in traffic, got %+v", stats)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"privreg_resident_streams", "privreg_spilled_streams", "privreg_store_cap 3", "privreg_evictions_total"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	_ = s
}

// TestStoreCapRequiresCheckpointDir pins the config contract: evicting
// without a spill directory would discard budgeted private state.
func TestStoreCapRequiresCheckpointDir(t *testing.T) {
	if _, err := New(Config{Spec: testSpec(), StoreCap: 4, CheckpointInterval: -1}); err == nil {
		t.Fatal("StoreCap without CheckpointDir accepted")
	}
	if _, err := New(Config{Spec: testSpec(), StoreCap: -1, CheckpointInterval: -1}); err == nil {
		t.Fatal("negative StoreCap accepted")
	}
}

func TestIngestCoalescingUnderConcurrency(t *testing.T) {
	// Many concurrent single-point observes on the same stream: all must be
	// acknowledged, the pool must hold exactly the total, and the coalescing
	// path should have merged at least some of them (probabilistically ~always
	// under this load; we only assert totals, which are deterministic).
	s, ts := newTestServer(t, Config{})
	const writers = 8
	const perWriter = 6
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < perWriter; i++ {
				x, y := point(w*perWriter+i, 4)
				code, raw := doJSON(t, "POST", ts.URL+"/v1/streams/hot/observe", map[string]any{"x": x, "y": y}, nil)
				if code != http.StatusOK {
					errs <- fmt.Errorf("writer %d: code=%d body=%s", w, code, raw)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := s.Pool().LenOK("hot"); got != writers*perWriter {
		t.Fatalf("pool holds %d points, want %d", got, writers*perWriter)
	}
}
