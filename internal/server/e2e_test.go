package server

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"privreg"
)

// feedShadow replays points [0, upto) of every stream into a shadow pool.
func feedShadow(t *testing.T, shadow *privreg.Pool, streams []string, upto, dim int) {
	t.Helper()
	for _, id := range streams {
		for j := 0; j < upto; j++ {
			x, y := SyntheticPoint(id, j, dim)
			if err := shadowObserve(shadow, id, x, y); err != nil {
				t.Fatalf("shadow %s point %d: %v", id, j, err)
			}
		}
	}
}

// driveHTTP sends points [from, to) of every stream to the server over HTTP,
// one goroutine per stream, in batches.
func driveHTTP(t *testing.T, url string, streams []string, from, to, dim, batch int) {
	t.Helper()
	var wg sync.WaitGroup
	errc := make(chan error, len(streams))
	for _, id := range streams {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for lo := from; lo < to; lo += batch {
				hi := lo + batch
				if hi > to {
					hi = to
				}
				xs := make([][]float64, 0, hi-lo)
				ys := make([]float64, 0, hi-lo)
				for j := lo; j < hi; j++ {
					x, y := SyntheticPoint(id, j, dim)
					xs = append(xs, x)
					ys = append(ys, y)
				}
				code, raw := doJSON(t, "POST", url+"/v1/streams/"+id+"/observe", observeBody(xs, ys), nil)
				if code != 200 {
					errc <- fmt.Errorf("stream %s batch [%d,%d): code=%d body=%s", id, lo, hi, code, raw)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// compareEstimates fetches every stream's estimate over HTTP and requires it
// to be bit-identical to the shadow pool's.
func compareEstimates(t *testing.T, url string, shadow *privreg.Pool, streams []string, wantLen int, label string) {
	t.Helper()
	for _, id := range streams {
		var got estimateResponse
		code, raw := doJSON(t, "GET", url+"/v1/streams/"+id+"/estimate", nil, &got)
		if code != 200 {
			t.Fatalf("%s: estimate %s: code=%d body=%s", label, id, code, raw)
		}
		if got.Len != wantLen {
			t.Fatalf("%s: stream %s server len=%d, want %d", label, id, got.Len, wantLen)
		}
		want, err := shadow.Estimate(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got.Estimate) {
			t.Fatalf("%s: stream %s estimate dimension %d != %d", label, id, len(got.Estimate), len(want))
		}
		for k := range want {
			if want[k] != got.Estimate[k] {
				t.Fatalf("%s: stream %s coordinate %d: server %v != shadow %v (not bit-identical)",
					label, id, k, got.Estimate[k], want[k])
			}
		}
	}
}

// TestE2EHTTPBitIdenticalWithRestart is the acceptance test of the serving
// stack: ≥8 concurrent streams ingested over HTTP/JSON must produce estimates
// bit-identical to an in-process Pool fed the same points, and a drain /
// restart-from-checkpoint in the middle must be invisible — the restarted
// server continues bit-identically. Float64 values survive the JSON boundary
// exactly because encoding/json emits the shortest round-trip representation.
func TestE2EHTTPBitIdenticalWithRestart(t *testing.T) {
	const (
		nStreams = 10
		phase1   = 24
		phase2   = 16
		total    = phase1 + phase2
		batch    = 5
	)
	spec := Spec{Mechanism: "gradient", Epsilon: 1, Delta: 1e-6, Horizon: 64, Dim: 4, Radius: 1, Seed: 42}
	dir := t.TempDir()
	streams := make([]string, nStreams)
	for i := range streams {
		streams[i] = fmt.Sprintf("user-%02d", i)
	}

	shadow, err := spec.NewPool()
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: boot, ingest concurrently over HTTP, verify against shadow.
	cfg := Config{Spec: spec, CheckpointDir: dir, CheckpointInterval: -1, Logf: t.Logf}
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	driveHTTP(t, ts1.URL, streams, 0, phase1, spec.Dim, batch)
	feedShadow(t, shadow, streams, phase1, spec.Dim)
	compareEstimates(t, ts1.URL, shadow, streams, phase1, "phase1")

	// Drain: queued work lands, final checkpoint is written.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Phase 2: a fresh server restores from the checkpoint and continues.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	// The restart restored every stream at its phase-1 length.
	for _, id := range streams {
		var st streamStatsResponse
		code, raw := doJSON(t, "GET", ts2.URL+"/v1/streams/"+id+"/stats", nil, &st)
		if code != 200 || st.Len != phase1 {
			t.Fatalf("restored stream %s: code=%d len=%d body=%s, want len=%d", id, code, st.Len, raw, phase1)
		}
	}

	driveHTTP(t, ts2.URL, streams, phase1, total, spec.Dim, batch)
	for _, id := range streams {
		for j := phase1; j < total; j++ {
			x, y := SyntheticPoint(id, j, spec.Dim)
			if err := shadowObserve(shadow, id, x, y); err != nil {
				t.Fatal(err)
			}
		}
	}
	compareEstimates(t, ts2.URL, shadow, streams, total, "phase2-after-restart")
}

// TestE2EProjectedMechanism runs a smaller version of the bit-identical check
// on the sketch-based mechanism, whose state (projection spec, solver
// randomness) exercises a different checkpoint path.
func TestE2EProjectedMechanism(t *testing.T) {
	const (
		nStreams = 8
		points   = 12
	)
	spec := Spec{Mechanism: "projected", Epsilon: 1, Delta: 1e-6, Horizon: 32, Dim: 16, Radius: 1, Seed: 7}
	streams := make([]string, nStreams)
	for i := range streams {
		streams[i] = fmt.Sprintf("proj-%02d", i)
	}
	shadow, err := spec.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Spec: spec, CheckpointInterval: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	driveHTTP(t, ts.URL, streams, 0, points, spec.Dim, 4)
	feedShadow(t, shadow, streams, points, spec.Dim)
	compareEstimates(t, ts.URL, shadow, streams, points, "projected")
}
