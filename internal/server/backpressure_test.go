package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"privreg/internal/wire"
)

// TestApplyRateEWMA pins the drain-rate estimator the Retry-After hints are
// derived from: the first observation seeds the rate, later ones blend in
// with weight alpha, and out-of-order clocks never produce a negative or
// infinite rate.
func TestApplyRateEWMA(t *testing.T) {
	pool, err := testSpec().NewPool()
	if err != nil {
		t.Fatal(err)
	}
	in := newIngester(pool, 4, 64, newMetrics())

	// First call only records the timestamp (no interval to measure yet).
	in.noteApplied(100)
	in.rateMu.Lock()
	if in.applyRate != 0 {
		t.Fatalf("rate after first apply = %v, want 0", in.applyRate)
	}
	// Seed the window: pretend the last apply was 100ms ago, then land 50
	// points — instantaneous rate 500/s becomes the whole estimate.
	in.lastApply = time.Now().Add(-100 * time.Millisecond)
	in.rateMu.Unlock()
	in.noteApplied(50)
	in.rateMu.Lock()
	first := in.applyRate
	in.rateMu.Unlock()
	if first < 400 || first > 600 {
		t.Fatalf("seeded rate = %v, want ≈500", first)
	}
	// A second, much slower interval moves the estimate by alpha, not to the
	// new instantaneous value: EWMA, not last-sample.
	in.rateMu.Lock()
	in.lastApply = time.Now().Add(-1 * time.Second)
	in.rateMu.Unlock()
	in.noteApplied(50) // instantaneous ≈50/s
	in.rateMu.Lock()
	blended := in.applyRate
	in.rateMu.Unlock()
	if blended >= first || blended < 50 {
		t.Fatalf("blended rate = %v, want between 50 and %v", blended, first)
	}
	// 0.8*first + 0.2*inst with inst≈50.
	want := 0.8*first + 0.2*50
	if blended < want*0.9 || blended > want*1.1 {
		t.Fatalf("blended rate = %v, want ≈%v (alpha = 0.2)", blended, want)
	}
}

// jamStream parks a fake busy drainer on the given stream and fills its queue
// to the server's bound, so the next observe overflows.
func jamStream(t *testing.T, s *Server, id string, points int) *streamQueue {
	t.Helper()
	q := &streamQueue{active: true}
	s.ing.mu.Lock()
	s.ing.queues[id] = q
	s.ing.mu.Unlock()
	x0, y0 := point(0, 4)
	var xs, ys []float64
	for i := 0; i < points; i++ {
		xs, ys = append(xs, x0...), append(ys, y0)
	}
	go func() { _, _ = s.ing.enqueue(id, xs, ys, -1) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		n := q.points
		q.mu.Unlock()
		if n == points {
			return q
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
}

// unjamStream hands the parked queue a real drainer so Close can finish.
func unjamStream(s *Server, id string, q *streamQueue) {
	s.ing.wg.Add(1)
	go s.ing.drainQueue(id, q)
}

// TestQueueFullParityAcrossFrontEnds overflows the same jammed stream over
// HTTP and over the wire protocol and checks both front-ends surface the one
// shared verdict: a retryable rejection whose hint comes from the same
// retryAfter derivation (integer seconds within the clamp bounds), HTTP as a
// 429 Retry-After header, wire as NackQueueFull.RetryAfter.
func TestQueueFullParityAcrossFrontEnds(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxQueuedPoints: 2})
	c := dialWire(t, startWire(t, s))
	q := jamStream(t, s, "jam", 2)
	defer unjamStream(s, "jam", q)

	x, y := point(1, 4)
	body, _ := json.Marshal(map[string]any{"x": x, "y": y})
	resp, err := http.Post(ts.URL+"/v1/streams/jam/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("http overflow: code %d, want 429", resp.StatusCode)
	}
	httpHint, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer", resp.Header.Get("Retry-After"))
	}

	_, _, werr := c.Observe("jam", x, []float64{y})
	var ne *wire.NackError
	if !errors.As(werr, &ne) || ne.Code != wire.NackQueueFull {
		t.Fatalf("wire overflow: %v, want queue-full nack", werr)
	}
	if !ne.Retryable() {
		t.Fatal("queue-full nack not retryable")
	}

	for _, hint := range []struct {
		front string
		secs  int
	}{{"http", httpHint}, {"wire", ne.RetryAfter}} {
		if hint.secs < minRetryAfter || hint.secs > maxRetryAfter {
			t.Fatalf("%s retry hint %d outside [%d, %d]", hint.front, hint.secs, minRetryAfter, maxRetryAfter)
		}
	}
}

// TestDrainParityAcrossFrontEnds drives the shutdown contract on both
// front-ends of one server at once: requests in flight when Close starts are
// either applied and acknowledged (200 / Ack) or refused as draining (503 /
// NackDraining) — never dropped — and requests after the drain are refused on
// both fronts. The pool's observation count must equal exactly the points
// that were positively acknowledged.
func TestDrainParityAcrossFrontEnds(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	c := dialWire(t, startWire(t, s))

	const perFront = 8
	var ackedPoints int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < perFront; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x, y := point(i, 4)
			applied, _, err := c.Observe(fmt.Sprintf("w%d", i), x, []float64{y})
			switch {
			case err == nil:
				mu.Lock()
				ackedPoints += int64(applied)
				mu.Unlock()
			default:
				var ne *wire.NackError
				if !errors.As(err, &ne) || ne.Code != wire.NackDraining {
					t.Errorf("wire in-flight observe: %v", err)
				}
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x, y := point(i, 4)
			body, _ := json.Marshal(map[string]any{"x": x, "y": y})
			resp, err := http.Post(ts.URL+fmt.Sprintf("/v1/streams/h%d/observe", i), "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("http in-flight observe: %v", err)
				return
			}
			defer resp.Body.Close()
			var or observeResponse
			switch resp.StatusCode {
			case http.StatusOK:
				if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
					t.Errorf("decoding ack: %v", err)
					return
				}
				mu.Lock()
				ackedPoints += int64(or.Applied)
				mu.Unlock()
			case http.StatusServiceUnavailable:
				io.Copy(io.Discard, resp.Body)
			default:
				raw, _ := io.ReadAll(resp.Body)
				t.Errorf("http in-flight observe: %d %s", resp.StatusCode, raw)
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if obs := s.pool.Stats().Observations; obs != ackedPoints {
		t.Fatalf("pool holds %d observations, but %d points were positively acked", obs, ackedPoints)
	}

	// After the drain both fronts refuse identically.
	x, y := point(0, 4)
	if _, _, err := c.Observe("late", x, []float64{y}); err == nil {
		t.Fatal("wire observe after drain succeeded")
	}
	body, _ := json.Marshal(map[string]any{"x": x, "y": y})
	resp, err := http.Post(ts.URL+"/v1/streams/late/observe", "application/json", bytes.NewReader(body))
	if err == nil {
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("http observe after drain: %d, want 503", resp.StatusCode)
		}
	}
}
