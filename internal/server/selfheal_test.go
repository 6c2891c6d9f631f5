package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"privreg/internal/wire"
)

// kill severs a node the way kill -9 would: every listener and connection
// drops at once, membership and replication stop, and — crucially — no leave
// handoff or ring broadcast runs. Survivors learn of the death only through
// their failure detectors.
func (n *clusterTestNode) kill() {
	n.s.cl.stopMembership()
	n.s.cl.stopReplication()
	_ = n.hs.Close()
	n.s.closeWireIntake()
	n.s.wireMu.Lock()
	for conn := range n.s.wireConns {
		_ = conn.Close()
	}
	n.s.wireMu.Unlock()
}

// TestClusterSelfHealingPromotion is the in-process twin of the e2e
// "unclean" phase: a three-node cluster with failure detection and
// replication factor 2 loses one member to an unclean kill. The survivors
// must converge — with no operator action — on ring v+1 without the dead
// node, promote their warm-standby copies (replaying the pre-ack replicated
// batch queue), and serve every stream bit-identically to a single shadow
// pool fed the same points: the acked prefix survives the kill exactly.
func TestClusterSelfHealingPromotion(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b", "c"}, func(i int, cfg *Config) {
		cfg.Cluster.Replicas = 2
		cfg.Cluster.ProbeInterval = 40 * time.Millisecond
		cfg.Cluster.ProbeTimeout = 20 * time.Millisecond
		cfg.Cluster.SuspicionTimeout = 150 * time.Millisecond
	})
	shadow := shadowPool(t)
	ids := clusterStreams(12)

	// Phase 1: every stream gets points through node a; forwarding routes
	// them to their owners, whose applied batches ship to standbys pre-ack.
	feedVia(t, nodes[0].url, shadow, ids, 0, 8)

	v1 := nodes[0].s.cl.Ring().Version()
	nodes[2].kill()

	// Survivors must converge on ring v+1 (dead node removed) within the
	// suspicion timeout plus probing slack — no operator involved.
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range nodes[:2] {
		for n.s.cl.Ring().Version() <= v1 {
			if time.Now().After(deadline) {
				t.Fatalf("node %s never adopted a post-death ring (still v%d)", n.node.ID, n.s.cl.Ring().Version())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if _, ok := n.s.cl.Ring().NodeByID("c"); ok {
			t.Fatalf("node %s ring v%d still contains the dead node", n.node.ID, n.s.cl.Ring().Version())
		}
	}

	// Every acked point was replicated before its ack, so after promotion
	// both survivors serve every stream — including those the dead node
	// owned — bit-identically to the shadow.
	checkEstimates(t, nodes[0].url, shadow, ids)
	checkEstimates(t, nodes[1].url, shadow, ids)

	// The cluster keeps accepting writes for all streams after the ring
	// transition, and stays bit-identical.
	feedVia(t, nodes[1].url, shadow, ids, 8, 12)
	checkEstimates(t, nodes[0].url, shadow, ids)

	// The introspection surface reflects the death: node a's member table
	// shows c as dead or left (reconcile marks settled removals as left).
	var members struct {
		RingVersion      uint64 `json:"ring_version"`
		FailureDetection bool   `json:"failure_detection"`
		Members          []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"members"`
	}
	code, raw := doJSON(t, "GET", nodes[0].url+"/v1/cluster/members", nil, &members)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/cluster/members: code=%d body=%s", code, raw)
	}
	if !members.FailureDetection {
		t.Fatal("members endpoint reports failure detection off")
	}
	stateOfC := ""
	for _, m := range members.Members {
		if m.ID == "c" {
			stateOfC = m.State
		}
	}
	if stateOfC != "dead" && stateOfC != "left" {
		t.Fatalf("dead node state = %q, want dead or left (body %s)", stateOfC, raw)
	}
}

// TestClusterSelfHealingConcurrentPromotion races the two callers that
// promote for the same ring — this node's detector and a peer's broadcast —
// and requires that the ring is published only after every promoted stream
// holds its whole replayed prefix: a read routed by the new ring must never
// find a stream still being promoted.
func TestClusterSelfHealingConcurrentPromotion(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b", "c"}, nil)
	cs := nodes[0].s.cl
	cur := cs.Ring()
	next, err := cur.Remove("c")
	if err != nil {
		t.Fatal(err)
	}
	horizon := testSpec().Horizon
	var moved []string
	for _, id := range clusterStreams(400) {
		if cur.Owner(id).ID == "c" && next.Owner(id).ID == "a" {
			moved = append(moved, id)
			for i := 0; i < horizon; i++ {
				x, y := point(i, 4)
				cs.replay[id] = append(cs.replay[id], bufferedBatch(t, int64(i), len(x), x, []float64{y}))
			}
		}
	}
	if len(moved) == 0 {
		t.Fatal("no stream moves from c to a")
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			cs.adoptPromoting(next)
		}()
	}
	close(start)
	for cs.Ring().Version() < next.Version() {
		runtime.Gosched()
	}
	for _, id := range moved {
		if n, _ := nodes[0].s.pool.LenOK(id); n != horizon {
			t.Errorf("ring v%d published while %s held %d of %d replayed rows", next.Version(), id, n, horizon)
		}
	}
	wg.Wait()
}

// TestErrorCodeParityAcrossTransports pins the unified taxonomy: for every
// wire nack code, the HTTP error envelope must carry the identical
// machine-readable code string, the HTTP status must match the documented
// mapping, and the Retry-After hint must survive both encodings. This is
// what lets a client library switch transports without changing its retry
// logic.
func TestErrorCodeParityAcrossTransports(t *testing.T) {
	codes := []wire.NackCode{
		wire.NackQueueFull, wire.NackDraining, wire.NackStreamFull,
		wire.NackUnknownStream, wire.NackBadRequest, wire.NackNotOwner,
		wire.NackImporting, wire.NackConflict,
	}
	for _, code := range codes {
		ne := &wire.NackError{Code: code, RetryAfter: 2, Msg: "synthetic"}

		// HTTP rendering.
		rec := httptest.NewRecorder()
		writeVerdict(rec, ne)
		var body errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%v: decoding envelope: %v (body %s)", code, err, rec.Body)
		}
		if body.Error.Code != code.Code() {
			t.Errorf("%v: envelope code = %q, want %q", code, body.Error.Code, code.Code())
		}
		if body.Error.Message == "" {
			t.Errorf("%v: envelope must carry the error message", code)
		}
		if rec.Code != nackStatus(code) {
			t.Errorf("%v: HTTP status = %d, want %d", code, rec.Code, nackStatus(code))
		}
		if body.Error.RetryAfterS != 2 {
			t.Errorf("%v: envelope retry_after_s = %d, want 2", code, body.Error.RetryAfterS)
		}
		if rec.Header().Get("Retry-After") != strconv.Itoa(2) {
			t.Errorf("%v: Retry-After header = %q, want 2", code, rec.Header().Get("Retry-After"))
		}

		// Wire rendering of the same failure.
		var b wire.Builder
		status := (&Server{}).appendWireResponse(&b, &wireCompletion{reqID: 9}, ne)
		if status != rec.Code {
			t.Errorf("%v: wire path HTTP-equivalent status = %d, HTTP path = %d", code, status, rec.Code)
		}
		ft, payload, err := wire.NewReader(bytes.NewReader(b.Bytes())).Next()
		if err != nil || ft != wire.FrameNack {
			t.Fatalf("%v: wire response frame = %v, %v; want nack", code, ft, err)
		}
		nk, err := wire.ParseNack(payload)
		if err != nil {
			t.Fatalf("%v: parsing nack: %v", code, err)
		}
		if nk.Code != code {
			t.Errorf("%v: nack code round-tripped to %v", code, nk.Code)
		}
		if nk.Code.Code() != body.Error.Code {
			t.Errorf("%v: transports disagree on the code string: wire %q, http %q", code, nk.Code.Code(), body.Error.Code)
		}
		if int(nk.RetryAfter) != body.Error.RetryAfterS {
			t.Errorf("%v: transports disagree on retry-after: wire %d, http %d", code, nk.RetryAfter, body.Error.RetryAfterS)
		}

		// Retryability is a property of the code, identical on both sides.
		if wire.IsRetryable(ne) != code.Retryable() {
			t.Errorf("%v: IsRetryable disagrees with NackCode.Retryable", code)
		}
	}
}

// TestMembersEndpointWithoutDetector pins the degenerate shape: a cluster
// node with failure detection off still serves /v1/cluster/members, with
// every ring member in state "unknown".
func TestMembersEndpointWithoutDetector(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, nil)
	var members struct {
		FailureDetection bool `json:"failure_detection"`
		Members          []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"members"`
	}
	code, raw := doJSON(t, "GET", nodes[0].url+"/v1/cluster/members", nil, &members)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/cluster/members: code=%d body=%s", code, raw)
	}
	if members.FailureDetection {
		t.Fatal("failure_detection = true with no detector configured")
	}
	if len(members.Members) != 2 {
		t.Fatalf("members = %d entries, want 2 (body %s)", len(members.Members), raw)
	}
	for _, m := range members.Members {
		if m.State != "unknown" {
			t.Errorf("member %s state = %q, want unknown", m.ID, m.State)
		}
	}
}

// TestConditionalObserveHTTP pins the exactly-once ingest contract on the
// HTTP edge: a batch with "from" set applies when it matches the stream
// length, dup-acks (applied 0) when it is wholly in the past, and conflicts
// (409, non-retryable) when it leaves a gap.
func TestConditionalObserveHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	x, y := point(0, 4)
	batch := map[string]any{"xs": [][]float64{x}, "ys": []float64{y}, "from": 0}
	var obs struct {
		Applied int `json:"applied"`
		Len     int `json:"len"`
	}
	code, raw := doJSON(t, "POST", ts.URL+"/v1/streams/s/observe", batch, &obs)
	if code != http.StatusOK || obs.Applied != 1 {
		t.Fatalf("first conditional batch: code=%d applied=%d body=%s", code, obs.Applied, raw)
	}

	// Same batch again: a retry of an acked write. Duplicate, not a re-apply.
	code, raw = doJSON(t, "POST", ts.URL+"/v1/streams/s/observe", batch, &obs)
	if code != http.StatusOK || obs.Applied != 0 {
		t.Fatalf("replayed batch: code=%d applied=%d body=%s (want 200, applied 0)", code, obs.Applied, raw)
	}
	if obs.Len != 1 {
		t.Fatalf("replayed batch reports len %d, want 1", obs.Len)
	}

	// A batch from the future leaves a gap: conflict, machine-readable.
	batch["from"] = 5
	code, raw = doJSON(t, "POST", ts.URL+"/v1/streams/s/observe", batch, nil)
	if code != http.StatusConflict {
		t.Fatalf("gapped batch: code=%d body=%s (want 409)", code, raw)
	}
	var envelope errorBody
	if err := json.Unmarshal([]byte(raw), &envelope); err != nil {
		t.Fatalf("decoding error envelope %q: %v", raw, err)
	}
	if envelope.Error.Code != wire.NackConflict.Code() {
		t.Fatalf("gapped batch envelope code = %q, want %q (body %s)", envelope.Error.Code, wire.NackConflict.Code(), raw)
	}
}
