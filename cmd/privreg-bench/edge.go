package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"privreg/internal/retry"
	"privreg/internal/server"
	"privreg/internal/wire"
)

// edgeResult is the machine-readable form of one edge-throughput probe: an
// in-process privreg server driven at full tilt through one of its two
// transports. points_per_sec is the end-to-end ingest rate (client encode →
// transport → server decode → group-commit apply → ack), so the pair of
// results measures the protocol overhead the estimator speed is hidden
// behind — the nonprivate mechanism applies points in ~0.2µs, leaving the
// wire format and HTTP/JSON machinery as essentially the whole cost.
type edgeResult struct {
	Proto           string  `json:"proto"` // "json" or "binary"
	Mechanism       string  `json:"mechanism"`
	Streams         int     `json:"streams"`
	PointsPerStream int     `json:"points_per_stream"`
	Dim             int     `json:"d"`
	Batch           int     `json:"batch"`
	PointsPerSec    float64 `json:"points_per_sec"`
}

// Edge-probe shape. Dim 32 with batch 256 matches the serving guidance in
// docs/SERVING.md (batch ≥64 so the per-request overhead amortizes); four
// concurrent streams keep the ingester's group commit busy without turning
// the probe into a scheduler benchmark.
const (
	edgeDim     = 32
	edgeBatch   = 256
	edgeStreams = 4
)

// runEdgeProbes boots one in-process server with both front ends listening on
// loopback and measures ingest throughput through each: the same synthetic
// workload (server.SyntheticPoint, so the loadgen shadow-pool contract holds
// here too) pushed over HTTP/JSON and over the binary wire protocol.
func runEdgeProbes(quick bool, seed int64) ([]edgeResult, error) {
	perStream := 1 << 15
	if quick {
		perStream = 1 << 13
	}

	srv, err := server.New(server.Config{
		Spec: server.Spec{
			Mechanism: "nonprivate",
			Epsilon:   1,
			Delta:     1e-6,
			Horizon:   perStream,
			Dim:       edgeDim,
			Radius:    1,
			Seed:      seed,
		},
		CheckpointInterval: -1,
	})
	if err != nil {
		return nil, fmt.Errorf("edge probe server: %w", err)
	}
	defer srv.Close()

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(httpLn)
	defer hs.Close()

	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.ServeWire(wireLn)

	results := make([]edgeResult, 0, 2)
	for _, proto := range []string{"json", "binary"} {
		rate, err := edgePhase(proto, srv, httpLn.Addr().String(), wireLn.Addr().String(), perStream)
		if err != nil {
			return nil, fmt.Errorf("edge probe %s: %w", proto, err)
		}
		results = append(results, edgeResult{
			Proto:           proto,
			Mechanism:       "nonprivate",
			Streams:         edgeStreams,
			PointsPerStream: perStream,
			Dim:             edgeDim,
			Batch:           edgeBatch,
			PointsPerSec:    rate,
		})
	}
	return results, nil
}

// edgePhase drives edgeStreams concurrent streams of perStream points each
// through one transport and returns the aggregate points/sec. Stream names
// are disjoint across phases so both phases hit fresh estimators of the same
// shape. Every batch must be positively acked and the final stream length
// checked against the pool, so a transport that silently drops points fails
// the probe instead of winning it.
func edgePhase(proto string, srv *server.Server, httpAddr, wireAddr string, perStream int) (float64, error) {
	var wc *wire.Client
	var hc *http.Client
	if proto == "binary" {
		c, err := wire.Dial(wireAddr, 5*time.Second)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		wc = c
	} else {
		tr := &http.Transport{MaxIdleConns: edgeStreams * 2, MaxIdleConnsPerHost: edgeStreams * 2}
		hc = &http.Client{Transport: tr}
		defer tr.CloseIdleConnections()
	}

	errs := make(chan error, edgeStreams)
	start := time.Now()
	for s := 0; s < edgeStreams; s++ {
		id := fmt.Sprintf("edge-%s-%d", proto, s)
		go func() {
			for lo := 0; lo < perStream; lo += edgeBatch {
				hi := lo + edgeBatch
				if hi > perStream {
					hi = perStream
				}
				var err error
				if wc != nil {
					err = edgeSendWire(wc, id, lo, hi)
				} else {
					err = edgeSendJSON(hc, httpAddr, id, lo, hi)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for s := 0; s < edgeStreams; s++ {
		if err := <-errs; err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)

	for s := 0; s < edgeStreams; s++ {
		id := fmt.Sprintf("edge-%s-%d", proto, s)
		if n, _ := srv.Pool().LenOK(id); n != perStream {
			return 0, fmt.Errorf("stream %s holds %d points after the run, want %d", id, n, perStream)
		}
	}
	return float64(edgeStreams*perStream) / elapsed.Seconds(), nil
}

// edgeSendWire sends points [lo, hi) of a stream as one binary observe frame,
// retrying retryable nacks via the shared policy — backpressure is part of
// the measured path.
func edgeSendWire(wc *wire.Client, id string, lo, hi int) error {
	xs := make([]float64, 0, (hi-lo)*edgeDim)
	ys := make([]float64, 0, hi-lo)
	for j := lo; j < hi; j++ {
		x, y := server.SyntheticPoint(id, j, edgeDim)
		xs = append(xs, x...)
		ys = append(ys, y)
	}
	for attempt := 1; ; attempt++ {
		_, _, err := wc.Observe(id, xs, ys)
		if wire.IsRetryable(err) {
			hint, _ := wire.RetryAfter(err)
			retry.Backoff(attempt, hint)
			continue
		}
		return err
	}
}

// edgeSendJSON sends the same batch as one POST /observe, retrying
// backpressure statuses via the shared policy.
func edgeSendJSON(hc *http.Client, addr, id string, lo, hi int) error {
	xs := make([][]float64, 0, hi-lo)
	ys := make([]float64, 0, hi-lo)
	for j := lo; j < hi; j++ {
		x, y := server.SyntheticPoint(id, j, edgeDim)
		xs = append(xs, x)
		ys = append(ys, y)
	}
	body, err := json.Marshal(map[string]any{"xs": xs, "ys": ys})
	if err != nil {
		return err
	}
	url := fmt.Sprintf("http://%s/v1/streams/%s/observe", addr, id)
	for attempt := 1; ; attempt++ {
		resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var or observeAck
		derr := json.NewDecoder(resp.Body).Decode(&or)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			if derr != nil {
				return derr
			}
			if or.Applied != hi-lo {
				return fmt.Errorf("ack applied %d of %d points", or.Applied, hi-lo)
			}
			return nil
		case retry.RetryableStatus(resp.StatusCode):
			retry.Backoff(attempt, retry.HTTPRetryAfter(resp))
		default:
			return fmt.Errorf("observe %s [%d, %d): HTTP %d", id, lo, hi, resp.StatusCode)
		}
	}
}

// observeAck mirrors the server's observe response body.
type observeAck struct {
	Applied int `json:"applied"`
	Len     int `json:"len"`
}

// runEdgeCLI is the -edge entry point: run just the edge probes and print
// the two rates plus their ratio (human-readably, or as one JSON array).
func runEdgeCLI(quick bool, seed int64, asJSON bool) int {
	results, err := runEdgeProbes(quick, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		return 0
	}
	rates := make(map[string]float64, len(results))
	for _, r := range results {
		rates[r.Proto] = r.PointsPerSec
		fmt.Printf("edge %-6s : %12.0f points/sec (%d streams × %d points, d=%d, batch=%d, mechanism %s)\n",
			r.Proto, r.PointsPerSec, r.Streams, r.PointsPerStream, r.Dim, r.Batch, r.Mechanism)
	}
	if rates["json"] > 0 {
		fmt.Printf("binary/json  : %12.2fx\n", rates["binary"]/rates["json"])
	}
	return 0
}
