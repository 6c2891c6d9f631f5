// Command privreg-loadgen drives a running privreg-server with deterministic
// synthetic traffic — N streams × M points, batched, optionally rate-limited
// — and then verifies the server end to end: every stream's estimate fetched
// over HTTP must be bit-identical to an in-process privreg.Pool fed exactly
// the same points.
//
// The shadow pool is built from the server's own GET /v1/config response, and
// the data for point j of stream s is a pure function of (s, j), so the
// comparison is exact: any divergence — a dropped point, a reordered batch, a
// float mangled by the JSON boundary, a checkpoint/restore glitch — fails the
// run with a non-zero exit.
//
// Usage:
//
//	privreg-loadgen -addr http://127.0.0.1:8080 -streams 8 -points 64 -batch 8
//
// With -proto binary (plus -wire-addr host:port) ingest and verification ride
// the compact binary wire protocol instead of HTTP/JSON — same deterministic
// data, same shadow-pool bit-identity check, several times the throughput:
//
//	privreg-loadgen -addr $URL -wire-addr 127.0.0.1:8081 -proto binary \
//	    -streams 8 -points 64 -batch 8
//
// Kill/restart verification: run a first phase, SIGTERM the server, restart
// it (it restores from its checkpoint), then run a second phase with -from set
// to the first phase's point count. The shadow pool locally replays points
// [0, from) before the phase, so the final comparison covers the server's
// whole life across the restart:
//
//	privreg-loadgen -addr $URL -streams 8 -points 24            # phase 1
//	# SIGTERM + restart privreg-server
//	privreg-loadgen -addr $URL -streams 8 -points 16 -from 24   # phase 2
//
// Churn mode: with -skew s > 0 the per-stream point counts follow a Zipf-like
// profile — stream i receives round(points / (i+1)^s) points (min 1) — so a
// few streams are hot and the long tail is cold. Combined with -streams far
// above the server's -store-cap this drives the spill store's worst case:
// constant eviction and fault-in under concurrent traffic. The skewed targets
// are a pure function of (i, points, skew), so the shadow-pool verification
// and -from restart phases work exactly as in the uniform case.
//
// Cluster mode: with -cluster the generator fetches the consistent-hash ring
// from GET /v1/ring on -addr and routes each stream's traffic client-side to
// its owner node — no forwarding hop — over whichever transport -proto
// selects (wire addresses come from the ring, so -wire-addr is not needed).
// Without -cluster any single member works as the entry point; the server
// forwards misrouted requests itself.
//
// Retryable rejections — HTTP 429/503 and wire queue-full / not-owner /
// importing nacks — back off honoring the server's Retry-After hint (header
// or nack field) when present, falling back to capped exponential delay,
// jittered either way so synchronized clients desynchronize. Rebalance seals
// during a node join or leave therefore cost retries, never failures.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sync"
	"time"

	"privreg/internal/cluster"
	"privreg/internal/retry"
	"privreg/internal/server"
	"privreg/internal/wire"
)

// Retry policy comes from internal/retry, shared with the server's
// forwarding proxy and the bench probes so every privreg client backs off
// identically. maxSendRetries bounds how long one batch may stay rejected
// before the run fails.
const maxSendRetries = 200

// streamTarget is the cumulative number of points stream i has received once
// `points` points have been offered per hot stream: the full count for
// stream 0, decaying as 1/(i+1)^skew down the tail (min 1). Monotone in
// points, so phase boundaries (-from) slice it consistently.
func streamTarget(i, points int, skew float64) int {
	if points <= 0 {
		return 0
	}
	if skew <= 0 {
		return points
	}
	t := int(math.Round(float64(points) / math.Pow(float64(i+1), skew)))
	if t < 1 {
		t = 1
	}
	if t > points {
		t = points
	}
	return t
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "base URL of the privreg-server")
		streams  = flag.Int("streams", 8, "number of concurrent streams")
		points   = flag.Int("points", 64, "points to send per stream this phase")
		from     = flag.Int("from", 0, "index of the first point to send (later phases of a restart test)")
		batch    = flag.Int("batch", 8, "points per observe request")
		rate     = flag.Float64("rate", 0, "target ingest rate in points/sec per stream (0 = unlimited)")
		verify   = flag.Bool("verify", true, "verify server estimates bit-identically against an in-process shadow pool")
		prefix   = flag.String("stream-prefix", "load", "stream ID prefix")
		skew     = flag.Float64("skew", 0, "churn mode: Zipf-like exponent for per-stream point counts (stream i gets ~points/(i+1)^skew; 0 = uniform)")
		proto    = flag.String("proto", "json", `ingest transport: "json" (HTTP) or "binary" (the wire protocol; requires -wire-addr unless -cluster)`)
		wireTgt  = flag.String("wire-addr", "", "host:port of the server's binary wire listener (used with -proto binary)")
		useRing  = flag.Bool("cluster", false, "ring-aware mode: fetch the ring from -addr and route each stream client-side to its owner node")
		outcomes = flag.Int("outcomes", 0, "expected outcome-column count k of a multi-outcome pool; 0 takes k from the server's config, any other value must agree with it")
	)
	flag.Parse()
	if *streams < 1 || *points < 1 || *batch < 1 || *from < 0 {
		fmt.Fprintln(os.Stderr, "error: -streams, -points, -batch must be positive and -from non-negative")
		return 2
	}
	if *skew < 0 {
		fmt.Fprintln(os.Stderr, "error: -skew must be non-negative")
		return 2
	}
	switch *proto {
	case "json", "binary":
	default:
		fmt.Fprintf(os.Stderr, "error: -proto must be json or binary, got %q\n", *proto)
		return 2
	}
	if *proto == "binary" && *wireTgt == "" && !*useRing {
		fmt.Fprintln(os.Stderr, "error: -proto binary requires -wire-addr (or -cluster, which takes wire addresses from the ring)")
		return 2
	}

	client := &http.Client{Timeout: 30 * time.Second}

	// The server's config is the shadow pool's recipe.
	spec, err := fetchSpec(client, *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	k := spec.Outcomes
	if k < 1 {
		k = 1
	}
	if *outcomes > 0 && *outcomes != k {
		fmt.Fprintf(os.Stderr, "error: -outcomes %d disagrees with the server's config (pool serves %d outcomes)\n", *outcomes, k)
		return 2
	}
	fmt.Printf("server pool: mechanism=%s d=%d k=%d T=%d (ε=%g, δ=%g, seed=%d)\n",
		spec.Mechanism, spec.Dim, k, spec.Horizon, spec.Epsilon, spec.Delta, spec.Seed)

	// Transports. One target by default; in -cluster mode one per ring
	// member, with each stream routed to its owner. In binary mode all of a
	// target's traffic — ingest and the verification estimates — rides one
	// multiplexed wire connection shared by every stream goroutine.
	dial := func(base, wireAddr string) (*target, error) {
		t := &target{base: base}
		if *proto != "binary" {
			return t, nil
		}
		wc, err := wire.Dial(wireAddr, 10*time.Second)
		if err != nil {
			return nil, fmt.Errorf("dialing wire listener %s: %w", wireAddr, err)
		}
		// The handshake's pool shape must agree with /v1/config (same
		// deployment, or the flags point at two different ones).
		if wc.Dim != spec.Dim || wc.Horizon != spec.Horizon || wc.Mechanism != spec.Mechanism || wc.Outcomes != k {
			wc.Close()
			return nil, fmt.Errorf("wire handshake at %s (mechanism=%s d=%d k=%d T=%d) disagrees with /v1/config (mechanism=%s d=%d k=%d T=%d)",
				wireAddr, wc.Mechanism, wc.Dim, wc.Outcomes, wc.Horizon, spec.Mechanism, spec.Dim, k, spec.Horizon)
		}
		t.wc = wc
		return t, nil
	}
	var targetFor func(id string) *target
	if *useRing {
		ring, err := fetchRing(client, *addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		byNode := make(map[string]*target, ring.Len())
		for _, n := range ring.Nodes() {
			t, err := dial("http://"+n.Addr, n.WireAddr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: ring member %s: %v\n", n.ID, err)
				return 1
			}
			if t.wc != nil {
				defer t.wc.Close()
			}
			byNode[n.ID] = t
		}
		targetFor = func(id string) *target { return byNode[ring.Owner(id).ID] }
		fmt.Printf("cluster: ring v%d, %d members; routing streams client-side to their owners\n",
			ring.Version(), ring.Len())
	} else {
		t, err := dial(*addr, *wireTgt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		if t.wc != nil {
			defer t.wc.Close()
		}
		targetFor = func(string) *target { return t }
	}
	to := *from + *points
	if to > spec.Horizon {
		fmt.Fprintf(os.Stderr, "error: from+points = %d exceeds the server's per-stream horizon %d\n", to, spec.Horizon)
		return 2
	}

	ids := make([]string, *streams)
	froms := make([]int, *streams)
	tos := make([]int, *streams)
	totalPlanned := 0
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%03d", *prefix, i)
		// Cumulative skewed targets: this phase sends the slice between the
		// profile at -from and the profile at -from+points.
		froms[i] = streamTarget(i, *from, *skew)
		tos[i] = streamTarget(i, to, *skew)
		totalPlanned += tos[i] - froms[i]
	}
	if *skew > 0 {
		fmt.Printf("churn: skew=%g, per-stream targets %d (hot) .. %d (cold), %d points total this phase\n",
			*skew, tos[0]-froms[0], tos[len(tos)-1]-froms[len(tos)-1], totalPlanned)
	}

	// Drive the server: one goroutine per stream, batched, paced to -rate.
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var sent int
	var retries429 int
	errc := make(chan error, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func(id string, from, to int) {
			defer wg.Done()
			tgt := targetFor(id)
			var interval time.Duration
			if *rate > 0 {
				interval = time.Duration(float64(*batch) / *rate * float64(time.Second))
			}
			next := time.Now()
			for lo := from; lo < to; lo += *batch {
				hi := lo + *batch
				if hi > to {
					hi = to
				}
				if interval > 0 {
					time.Sleep(time.Until(next))
					next = next.Add(interval)
				}
				var (
					n, retr int
					err     error
				)
				if tgt.wc != nil {
					n, retr, err = sendBatchWire(tgt.wc, id, spec.Dim, k, lo, hi)
				} else {
					n, retr, err = sendBatch(client, tgt.base, id, spec.Dim, k, lo, hi)
				}
				if err != nil {
					errc <- fmt.Errorf("stream %s batch [%d,%d): %w", id, lo, hi, err)
					return
				}
				mu.Lock()
				sent += n
				retries429 += retr
				mu.Unlock()
			}
		}(id, froms[i], tos[i])
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	elapsed := time.Since(start)
	fmt.Printf("sent %d points over %d streams in %s via %s (%.0f points/sec, %d backpressure retries)\n",
		sent, len(ids), elapsed.Round(time.Millisecond), *proto, float64(sent)/elapsed.Seconds(), retries429)

	if !*verify {
		return 0
	}

	// Build the shadow pool and replay the server's entire point history
	// [0, tos[i]) per stream — including any earlier phases this process
	// never sent.
	shadow, err := spec.NewPool()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error: building shadow pool:", err)
		return 1
	}
	for i, id := range ids {
		for j := 0; j < tos[i]; j++ {
			x, ys := server.SyntheticPointMulti(id, j, spec.Dim, k)
			if err := shadow.ObserveMultiFlat(id, spec.Dim, x, ys); err != nil {
				fmt.Fprintf(os.Stderr, "error: shadow %s point %d: %v\n", id, j, err)
				return 1
			}
		}
	}

	mismatches := 0
	for i, id := range ids {
		// Estimates ride the same transport (and, in cluster mode, the same
		// owner node) as ingest, so a binary run verifies the wire protocol's
		// estimate path too. On a multi-outcome pool every outcome index is
		// fetched and compared independently — the whole point of the shared
		// fold is that all k regressions stay exact simultaneously.
		tgt := targetFor(id)
		for o := 0; o < k; o++ {
			var (
				est []float64
				n   int
			)
			if tgt.wc != nil {
				est, n, err = fetchEstimateWire(tgt.wc, id, o)
			} else {
				est, n, err = fetchEstimate(client, tgt.base, id, o)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return 1
			}
			if n != tos[i] {
				fmt.Fprintf(os.Stderr, "MISMATCH %s outcome %d: server len=%d, want %d\n", id, o, n, tos[i])
				mismatches++
				continue
			}
			want, err := shadow.EstimateOutcome(id, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return 1
			}
			if !equalVectors(est, want) {
				fmt.Fprintf(os.Stderr, "MISMATCH %s outcome %d: server estimate is not bit-identical to the shadow pool\n  server %v\n  shadow %v\n", id, o, est, want)
				mismatches++
			}
		}
	}
	if mismatches > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d/%d streams×outcomes diverged\n", mismatches, len(ids)*k)
		return 1
	}
	fmt.Printf("verified: %d streams × %d outcomes bit-identical to the in-process shadow pool at t=%d (hot-stream length)\n", len(ids), k, tos[0])
	return 0
}

// target is one node's pair of transports: an HTTP base URL plus, in binary
// mode, a multiplexed wire connection.
type target struct {
	base string
	wc   *wire.Client
}

// fetchRing pulls and rebuilds the cluster's consistent-hash ring from a
// member's GET /v1/ring.
func fetchRing(client *http.Client, addr string) (*cluster.Ring, error) {
	resp, err := client.Get(addr + "/v1/ring")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/ring: %s: %s (is the server clustered?)", resp.Status, body)
	}
	ring := new(cluster.Ring)
	if err := json.Unmarshal(body, ring); err != nil {
		return nil, fmt.Errorf("decoding ring: %w", err)
	}
	return ring, nil
}

func fetchSpec(client *http.Client, addr string) (server.Spec, error) {
	var spec server.Spec
	resp, err := client.Get(addr + "/v1/config")
	if err != nil {
		return spec, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return spec, fmt.Errorf("GET /v1/config: %s: %s", resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(&spec); err != nil {
		return spec, fmt.Errorf("decoding /v1/config: %w", err)
	}
	return spec, nil
}

// sendBatch posts points [lo, hi) of the stream, retrying 429 (backpressure)
// and 503 (rebalance seal / import / drain) with jittered backoff honoring
// the response's Retry-After. Returns the number of points applied and the
// number of retries performed.
func sendBatch(client *http.Client, addr, id string, dim, k, lo, hi int) (int, int, error) {
	xs := make([][]float64, 0, hi-lo)
	payload := map[string]any{"from": lo}
	if k > 1 {
		yss := make([][]float64, 0, hi-lo)
		for j := lo; j < hi; j++ {
			x, yrow := server.SyntheticPointMulti(id, j, dim, k)
			xs = append(xs, x)
			yss = append(yss, yrow)
		}
		payload["xs"], payload["yss"] = xs, yss
	} else {
		ys := make([]float64, 0, hi-lo)
		for j := lo; j < hi; j++ {
			x, y := server.SyntheticPoint(id, j, dim)
			xs = append(xs, x)
			ys = append(ys, y)
		}
		payload["xs"], payload["ys"] = xs, ys
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return 0, 0, err
	}
	url := fmt.Sprintf("%s/v1/streams/%s/observe", addr, id)
	retries := 0
	for {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, retries, err
		}
		respBody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			return hi - lo, retries, nil
		case retry.RetryableStatus(resp.StatusCode):
			retries++
			if retries > maxSendRetries {
				return 0, retries, fmt.Errorf("still rejected (%s) after %d retries: %s", resp.Status, retries, respBody)
			}
			retry.Backoff(retries, retry.HTTPRetryAfter(resp))
		default:
			return 0, retries, fmt.Errorf("%s: %s", resp.Status, respBody)
		}
	}
}

// sendBatchWire sends points [lo, hi) of the stream as one binary observe
// frame, retrying retryable nacks (queue-full, not-owner, importing) with
// the exact same jittered backoff as the HTTP path, honoring the nack's
// RetryAfter field. Returns the number of points applied and the number of
// retries performed.
func sendBatchWire(wc *wire.Client, id string, dim, k, lo, hi int) (int, int, error) {
	xs := make([]float64, 0, (hi-lo)*dim)
	ys := make([]float64, 0, (hi-lo)*k)
	for j := lo; j < hi; j++ {
		x, yrow := server.SyntheticPointMulti(id, j, dim, k)
		xs = append(xs, x...)
		ys = append(ys, yrow...)
	}
	retries := 0
	for {
		applied, _, err := wc.ObserveAt(id, int64(lo), xs, ys)
		if err == nil {
			return applied, retries, nil
		}
		if !wire.IsRetryable(err) {
			return 0, retries, err
		}
		retries++
		if retries > maxSendRetries {
			return 0, retries, fmt.Errorf("still rejected after %d retries: %v", retries, err)
		}
		hint, _ := wire.RetryAfter(err)
		retry.Backoff(retries, hint)
	}
}

// fetchEstimate reads one stream's estimate, retrying retryable statuses —
// an estimate during a rebalance seal, an import window, or a failure-
// detection suspicion gap is a matter of waiting, not an error.
func fetchEstimate(client *http.Client, addr, id string, outcome int) ([]float64, int, error) {
	url := fmt.Sprintf("%s/v1/streams/%s/estimate", addr, id)
	if outcome > 0 {
		url = fmt.Sprintf("%s?outcome=%d", url, outcome)
	}
	for attempt := 1; ; attempt++ {
		resp, err := client.Get(url)
		if err != nil {
			return nil, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if retry.RetryableStatus(resp.StatusCode) && attempt <= maxSendRetries {
				retry.Backoff(attempt, retry.HTTPRetryAfter(resp))
				continue
			}
			return nil, 0, fmt.Errorf("estimate %s: %s: %s", id, resp.Status, body)
		}
		var out struct {
			Estimate []float64 `json:"estimate"`
			Len      int       `json:"len"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("decoding estimate %s: %w", id, err)
		}
		return out.Estimate, out.Len, nil
	}
}

// fetchEstimateWire is the binary-path twin of fetchEstimate.
func fetchEstimateWire(wc *wire.Client, id string, outcome int) ([]float64, int, error) {
	for attempt := 1; ; attempt++ {
		est, n, err := wc.EstimateOutcome(id, outcome)
		if wire.IsRetryable(err) && attempt <= maxSendRetries {
			hint, _ := wire.RetryAfter(err)
			retry.Backoff(attempt, hint)
			continue
		}
		return est, n, err
	}
}

func equalVectors(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
