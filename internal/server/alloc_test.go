package server

import (
	"bytes"
	"net/http/httptest"
	"testing"
)

// TestObserveHandlerAllocs is the allocation-regression guard of the ingest
// edge: one batched observe request through the full handler path (mux →
// decode → ingest queue → pool apply → response encode) must stay under a
// fixed allocation budget. The budget covers the per-request channel, the
// drainer goroutine and the body-size guard — the pooled body, row and
// response buffers, the allocation-free body scanner and the estimator's
// zero-alloc AddTo path are what keep it flat regardless of batch size. Before the scratch pooling this path sat well
// above the budget; a failure here means a pooled buffer stopped being
// reused.
func TestObserveHandlerAllocs(t *testing.T) {
	spec := Spec{Mechanism: "gradient", Epsilon: 1, Delta: 1e-6, Horizon: 1 << 20, Dim: 8, Seed: 1}
	srv, err := New(Config{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body := []byte(`{"xs":[[0.1,0,0,0,0,0,0,0],[0,0.2,0,0,0,0,0,0],[0,0,0.3,0,0,0,0,0],[0,0,0,0.4,0,0,0,0]],"ys":[0.1,0.2,0.3,0.4]}`)
	h := srv.Handler()

	run := func() {
		req := httptest.NewRequest("POST", "/v1/streams/s1/observe", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("observe returned %d: %s", rec.Code, rec.Body.String())
		}
	}
	run() // warm up: stream creation, pools, lazy buffers

	// Measured 31 allocs/request on go1.24 linux/amd64, the test's own
	// request and recorder included (down from 45 when encoding/json decoded
	// the body into nested slices and the response was indented); the
	// budget leaves headroom for Go-version drift without masking a lost
	// pooled buffer.
	const budget = 36
	if allocs := testing.AllocsPerRun(100, run); allocs > budget {
		t.Fatalf("observe handler allocates %.0f times per request, budget %d", allocs, budget)
	}
}

// TestWireObserveAllocs is the same guard for the binary front-end, where
// the whole point of the frame format is zero-copy ingest: one pipelined
// observe round trip (client encode → TCP → frame decode → pooled row
// buffers → ingest queue → pool apply → ack encode) has a much tighter
// budget than the JSON path because nothing on the hot path should allocate
// besides the per-request bookkeeping on both ends. AllocsPerRun counts
// process-wide mallocs, so the budget covers client and server together; a
// jump here means a pooled frame or row buffer stopped being reused.
func TestWireObserveAllocs(t *testing.T) {
	spec := testSpec()
	spec.Horizon = 1 << 20
	s, _ := newTestServer(t, Config{Spec: spec})
	c := dialWire(t, startWire(t, s))

	const rows = 4
	flat := make([]float64, 0, rows*4)
	ys := make([]float64, 0, rows)
	for i := 0; i < rows; i++ {
		x, y := point(i, 4)
		flat = append(flat, x...)
		ys = append(ys, y)
	}

	run := func() {
		if _, _, err := c.Observe("w1", flat, ys); err != nil {
			t.Fatalf("wire observe: %v", err)
		}
	}
	run() // warm up: stream creation, connection scratch, pooled buffers

	// Measured ≈ 11 allocs/round-trip on go1.24 linux/amd64; headroom for
	// Go-version and scheduler drift without masking a lost pooled buffer.
	const budget = 30
	if allocs := testing.AllocsPerRun(100, run); allocs > budget {
		t.Fatalf("wire observe allocates %.0f times per round trip, budget %d", allocs, budget)
	}
}

// TestWireObserveMultiAllocs pins the multi-outcome wire path to the same
// regime: k response columns per row must not change the allocation shape,
// only the size of the pooled buffers.
func TestWireObserveMultiAllocs(t *testing.T) {
	spec := testSpec()
	spec.Mechanism = "multi-outcome"
	spec.Outcomes = 4
	spec.Horizon = 1 << 20
	s, _ := newTestServer(t, Config{Spec: spec})
	c := dialWire(t, startWire(t, s))

	const rows = 4
	flat := make([]float64, 0, rows*4)
	ys := make([]float64, 0, rows*4)
	for i := 0; i < rows; i++ {
		x, yrow := SyntheticPointMulti("w2", i, 4, 4)
		flat = append(flat, x...)
		ys = append(ys, yrow...)
	}

	run := func() {
		if _, _, err := c.Observe("w2", flat, ys); err != nil {
			t.Fatalf("wire multi observe: %v", err)
		}
	}
	run()

	const budget = 30
	if allocs := testing.AllocsPerRun(100, run); allocs > budget {
		t.Fatalf("wire multi observe allocates %.0f times per round trip, budget %d", allocs, budget)
	}
}
