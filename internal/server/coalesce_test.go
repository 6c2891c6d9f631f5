package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"testing"
	"time"
)

// TestGroupCommitCoalescesAcrossLayouts holds one stream's drainer while
// unconditional requests of every accepted shape queue up behind it — HTTP
// batch and single-point bodies and binary wire frames — and then releases
// it. The whole group must land in one pool call (the coalesce counter in
// /metrics moves), every outcome's estimate must be bit-identical to a
// shadow pool fed the same rows through ObserveMultiFlat, and under
// replication factor 2 each request must reach the standby on its own, at
// its own start offset.
func TestGroupCommitCoalescesAcrossLayouts(t *testing.T) {
	type request struct {
		form string // "http-batch", "http-single" or "wire"
		rows int
	}
	cases := []struct {
		k    int
		reqs []request
	}{
		{1, []request{{"http-batch", 2}, {"http-single", 1}, {"wire", 3}, {"http-batch", 2}}},
		{4, []request{{"http-batch", 2}, {"wire", 3}, {"http-batch", 1}}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("k=%d", tc.k), func(t *testing.T) {
			spec := testSpec()
			if tc.k > 1 {
				spec.Mechanism, spec.Outcomes = "multi-outcome", tc.k
			}
			nodes := startCluster(t, []string{"a", "b"}, func(_ int, cfg *Config) {
				cfg.Spec = spec
				cfg.Cluster.Replicas = 2
			})
			owner, standby := nodes[0], nodes[1]
			var id string
			for _, cand := range clusterStreams(64) {
				if owner.s.cl.Ring().Owner(cand).ID == owner.node.ID {
					id = cand
					break
				}
			}
			if id == "" {
				t.Fatal("no stream owned by the first node")
			}
			c := dialWire(t, owner.node.WireAddr)
			shadow, err := spec.NewPool()
			if err != nil {
				t.Fatal(err)
			}
			coalescedBefore := coalescedBatches(t, owner.url)

			// Park a fake busy drainer so every request queues.
			q := &streamQueue{active: true}
			owner.s.ing.mu.Lock()
			owner.s.ing.queues[id] = q
			owner.s.ing.mu.Unlock()

			type sent struct {
				start  int
				xs, ys []float64
			}
			var want []sent
			errs := make(chan error, len(tc.reqs))
			off := 0
			for _, r := range tc.reqs {
				var xs, ys []float64
				var rowsX, rowsY [][]float64
				for j := off; j < off+r.rows; j++ {
					x, yrow := SyntheticPointMulti(id, j, spec.Dim, tc.k)
					xs, ys = append(xs, x...), append(ys, yrow...)
					rowsX, rowsY = append(rowsX, x), append(rowsY, yrow)
				}
				var body map[string]any
				switch {
				case r.form == "http-single" && tc.k == 1:
					body = map[string]any{"x": rowsX[0], "y": rowsY[0][0]}
				case r.form == "http-single":
					body = map[string]any{"x": rowsX[0], "ys": rowsY[0]}
				case r.form == "http-batch" && tc.k == 1:
					body = map[string]any{"xs": rowsX, "ys": ys}
				case r.form == "http-batch":
					body = map[string]any{"xs": rowsX, "yss": rowsY}
				}
				go func() {
					if body == nil {
						_, _, err := c.Observe(id, xs, ys)
						errs <- err
						return
					}
					errs <- postObserve(owner.url, id, body)
				}()
				want = append(want, sent{start: off, xs: xs, ys: ys})
				off += r.rows
				waitQueued(t, q, off)
				if err := shadow.ObserveMultiFlat(id, spec.Dim, xs, ys); err != nil {
					t.Fatal(err)
				}
			}
			unjamStream(owner.s, id, q)
			for range tc.reqs {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}

			if got := coalescedBatches(t, owner.url); got != coalescedBefore+1 {
				t.Fatalf("coalesced batches %d -> %d, want one merged pool call", coalescedBefore, got)
			}
			for o := 0; o < tc.k; o++ {
				wantEst, err := shadow.EstimateOutcome(id, o)
				if err != nil {
					t.Fatal(err)
				}
				var est estimateResponse
				url := fmt.Sprintf("%s/v1/streams/%s/estimate?outcome=%d", owner.url, id, o)
				if code, raw := doJSON(t, "GET", url, nil, &est); code != http.StatusOK || est.Len != off {
					t.Fatalf("estimate outcome %d: code=%d body=%s", o, code, raw)
				}
				if !sameBits(est.Estimate, wantEst) {
					t.Fatalf("outcome %d: coalesced %v, shadow %v", o, est.Estimate, wantEst)
				}
			}

			// Replication ships before the ack, so the standby already holds
			// one buffered entry per request.
			standby.s.cl.replayMu.Lock()
			got := append([]replayEntry(nil), standby.s.cl.replay[id]...)
			standby.s.cl.replayMu.Unlock()
			if len(got) != len(want) {
				t.Fatalf("standby buffered %d replicated batches, want %d (one per request)", len(got), len(want))
			}
			for i, w := range want {
				e := got[i]
				xs, ys := make([]float64, len(w.xs)), make([]float64, len(w.ys))
				if e.start != int64(w.start) || e.rows.Rows != tc.reqs[i].rows || e.rows.DecodeRows(xs, ys) != nil || !sameBits(xs, w.xs) || !sameBits(ys, w.ys) {
					t.Fatalf("replicated batch %d: start %d rows %d, want start %d rows %d with the request's own rows", i, e.start, e.rows.Rows, w.start, tc.reqs[i].rows)
				}
			}
		})
	}
}

// postObserve sends one observe body; safe to call off the test goroutine.
func postObserve(url, id string, body any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url+"/v1/streams/"+id+"/observe", "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("observe %s: %s: %s", id, resp.Status, raw)
	}
	return nil
}

// waitQueued blocks until the parked queue holds points rows.
func waitQueued(t *testing.T, q *streamQueue, points int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		n := q.points
		q.mu.Unlock()
		if n == points {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d points, want %d", n, points)
		}
		time.Sleep(time.Millisecond)
	}
}

var coalescedRe = regexp.MustCompile(`(?m)^privreg_coalesced_batches_total (\d+)$`)

// coalescedBatches scrapes the ingest coalesce counter from /metrics.
func coalescedBatches(t *testing.T, url string) int {
	t.Helper()
	code, raw := doJSON(t, "GET", url+"/metrics", nil, nil)
	m := coalescedRe.FindStringSubmatch(raw)
	if code != http.StatusOK || m == nil {
		t.Fatalf("metrics: code=%d, no coalesce counter in %q", code, raw)
	}
	n, _ := strconv.Atoi(m[1])
	return n
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
