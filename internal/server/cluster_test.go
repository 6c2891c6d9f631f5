package server

import (
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"privreg"
	"privreg/internal/cluster"
	"privreg/internal/wire"
)

// clusterTestNode is one running member: the Server plus its two live
// listeners (HTTP via net/http.Server, binary via ServeWire).
type clusterTestNode struct {
	s    *Server
	hs   *http.Server
	node cluster.Node
	url  string // http://host:port
}

// startClusterNode boots one member on fresh loopback ports. members is the
// boot ring; pre-listen so every node's addresses are known before any
// config is built.
func startClusterNode(t *testing.T, self cluster.Node, members []cluster.Node, httpLn, wireLn net.Listener, mutate func(cfg *Config)) *clusterTestNode {
	t.Helper()
	cfg := Config{
		Spec:               testSpec(),
		CheckpointInterval: -1,
		Logf:               t.Logf,
		Cluster: &ClusterConfig{
			NodeID:              self.ID,
			Nodes:               members,
			ReplicationInterval: -1, // tests that want replication opt in
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeWire(wireLn) }()
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(httpLn) }()
	t.Cleanup(func() {
		_ = s.Close()
		_ = hs.Close()
	})
	return &clusterTestNode{s: s, hs: hs, node: self, url: "http://" + self.Addr}
}

// startCluster boots a static cluster: every member knows the full ring at
// birth, as privreg-server -peers would configure it.
func startCluster(t *testing.T, ids []string, mutate func(i int, cfg *Config)) []*clusterTestNode {
	t.Helper()
	members := make([]cluster.Node, len(ids))
	httpLns := make([]net.Listener, len(ids))
	wireLns := make([]net.Listener, len(ids))
	for i, id := range ids {
		hl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		wl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		httpLns[i], wireLns[i] = hl, wl
		members[i] = cluster.Node{ID: id, Addr: hl.Addr().String(), WireAddr: wl.Addr().String()}
	}
	out := make([]*clusterTestNode, len(ids))
	for i := range ids {
		i := i
		out[i] = startClusterNode(t, members[i], members, httpLns[i], wireLns[i], func(cfg *Config) {
			if mutate != nil {
				mutate(i, cfg)
			}
		})
	}
	return out
}

// shadowPool builds the single-node reference every cluster test compares
// against: cluster serving must be bit-identical to one pool fed the same
// points in the same per-stream order.
func shadowPool(t *testing.T) *privreg.Pool {
	t.Helper()
	p, err := testSpec().NewPool()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func clusterStreams(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("stream-%02d", i)
	}
	return ids
}

// feedVia drives points through one node's HTTP edge (misrouted streams are
// forwarded server-side) and mirrors them into the shadow pool.
func feedVia(t *testing.T, url string, shadow *privreg.Pool, ids []string, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		for _, id := range ids {
			x, y := point(i, 4)
			code, raw := doJSON(t, "POST", url+"/v1/streams/"+id+"/observe", map[string]any{"x": x, "y": y}, nil)
			if code != http.StatusOK {
				t.Fatalf("observe %s via %s: code=%d body=%s", id, url, code, raw)
			}
			if err := shadowObserve(shadow, id, x, y); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkEstimates fetches every stream's estimate through the given node and
// requires bit-identity with the shadow pool.
func checkEstimates(t *testing.T, url string, shadow *privreg.Pool, ids []string) {
	t.Helper()
	for _, id := range ids {
		var got estimateResponse
		code, raw := doJSON(t, "GET", url+"/v1/streams/"+id+"/estimate", nil, &got)
		if code != http.StatusOK {
			t.Fatalf("estimate %s via %s: code=%d body=%s", id, url, code, raw)
		}
		want, err := shadow.Estimate(id)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%x", got.Estimate) != fmt.Sprintf("%x", want) {
			t.Fatalf("estimate of %s via %s diverged from shadow:\n got %v\nwant %v", id, url, got.Estimate, want)
		}
	}
}

// TestClusterForwardingBitIdentical drives every stream through one node of
// a two-node cluster and reads every estimate through the other, so roughly
// half the traffic crosses the forwarding proxy in each direction — and the
// results must be indistinguishable from a single pool.
func TestClusterForwardingBitIdentical(t *testing.T) {
	nodes := startCluster(t, []string{"alpha", "beta"}, nil)
	shadow := shadowPool(t)
	ids := clusterStreams(8)

	feedVia(t, nodes[0].url, shadow, ids, 0, 6)
	checkEstimates(t, nodes[1].url, shadow, ids)

	// Both nodes own some streams and each forwarded the rest.
	ring := nodes[0].s.Ring()
	owners := map[string]int{}
	for _, id := range ids {
		owners[ring.Owner(id).ID]++
	}
	if len(owners) != 2 {
		t.Fatalf("want both nodes owning streams, got %v", owners)
	}
	for i, n := range nodes {
		if got := n.s.pool.Stats().Streams; got != owners[n.node.ID] {
			t.Fatalf("node %d holds %d streams, owns %d — forwarding leaked local state", i, got, owners[n.node.ID])
		}
	}
}

// TestClusterWireForwarding covers the binary front end: observes and
// estimates sent to the wrong node over the wire protocol are relayed with
// the forwarded flag and answer with the owner's counts.
func TestClusterWireForwarding(t *testing.T) {
	nodes := startCluster(t, []string{"alpha", "beta"}, nil)
	shadow := shadowPool(t)
	ids := clusterStreams(6)

	c, err := wire.Dial(nodes[0].node.WireAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Server == "" {
		t.Fatal("hello-ack did not carry the server build identifier")
	}

	const rounds = 5
	for i := 0; i < rounds; i++ {
		for _, id := range ids {
			x, y := point(i, 4)
			applied, length, err := c.Observe(id, x, []float64{y})
			if err != nil || applied != 1 || length != i+1 {
				t.Fatalf("wire observe %s round %d: applied=%d len=%d err=%v", id, i, applied, length, err)
			}
			if err := shadowObserve(shadow, id, x, y); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range ids {
		got, length, err := c.Estimate(id)
		if err != nil || length != rounds {
			t.Fatalf("wire estimate %s: len=%d err=%v", id, length, err)
		}
		want, err := shadow.Estimate(id)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%x", got) != fmt.Sprintf("%x", want) {
			t.Fatalf("wire estimate of %s diverged from shadow", id)
		}
	}

	// The ring is served over the wire too, newest version, parseable.
	v, blob, err := c.FetchRing()
	if err != nil || v != 1 || len(blob) == 0 {
		t.Fatalf("FetchRing: v=%d len=%d err=%v", v, len(blob), err)
	}
	ring := new(cluster.Ring)
	if err := ring.UnmarshalJSON(blob); err != nil {
		t.Fatal(err)
	}
	if ring.Len() != 2 {
		t.Fatalf("wire ring has %d members, want 2", ring.Len())
	}
}

// TestClusterJoinHandoff grows a live two-node cluster to three: the joiner
// receives its share of streams with full estimator state, mid-stream, and
// subsequent points and estimates stay bit-identical to the shadow pool.
func TestClusterJoinHandoff(t *testing.T) {
	nodes := startCluster(t, []string{"alpha", "beta"}, nil)
	shadow := shadowPool(t)
	ids := clusterStreams(12)

	feedVia(t, nodes[0].url, shadow, ids, 0, 5)

	// Boot gamma alone and join through alpha.
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := cluster.Node{ID: "gamma", Addr: hl.Addr().String(), WireAddr: wl.Addr().String()}
	joiner := startClusterNode(t, self, []cluster.Node{self}, hl, wl, nil)
	if err := joiner.s.JoinCluster(nodes[0].url); err != nil {
		t.Fatal(err)
	}

	for _, n := range append(nodes, joiner) {
		if v := n.s.Ring().Version(); v != 2 {
			t.Fatalf("node %s ring version %d after join, want 2", n.node.ID, v)
		}
	}
	ring := joiner.s.Ring()
	moved := 0
	for _, id := range ids {
		if ring.Owner(id).ID == "gamma" {
			moved++
			got, _ := joiner.s.pool.LenOK(id)
			if want, _ := shadow.LenOK(id); got != want {
				t.Fatalf("joined stream %s has length %d, want %d", id, got, want)
			}
		}
	}
	if moved == 0 {
		t.Fatal("join moved no streams; distribution test should make this impossible")
	}

	// Keep feeding through the joiner (it forwards what it does not own) and
	// verify through an original member.
	feedVia(t, joiner.url, shadow, ids, 5, 9)
	checkEstimates(t, nodes[1].url, shadow, ids)
}

// TestClusterLeaveHandoff closes one node of a three-node cluster mid-life:
// its streams move to the survivors with full state, the survivors adopt the
// shrunken ring, and estimates remain bit-identical.
func TestClusterLeaveHandoff(t *testing.T) {
	nodes := startCluster(t, []string{"alpha", "beta", "gamma"}, nil)
	shadow := shadowPool(t)
	ids := clusterStreams(12)

	feedVia(t, nodes[0].url, shadow, ids, 0, 5)

	if err := nodes[1].s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, n := range []*clusterTestNode{nodes[0], nodes[2]} {
		ring := n.s.Ring()
		if ring.Version() != 2 || ring.Len() != 2 {
			t.Fatalf("survivor %s ring v%d with %d members, want v2 with 2", n.node.ID, ring.Version(), ring.Len())
		}
		if _, ok := ring.NodeByID("beta"); ok {
			t.Fatalf("survivor %s still lists beta", n.node.ID)
		}
	}
	feedVia(t, nodes[2].url, shadow, ids, 5, 8)
	checkEstimates(t, nodes[0].url, shadow, ids)
}

// TestClusterStandbyReplication checks the warm-standby path: the owner
// pushes segment copies to the stream's ring successor, which holds them
// (same length, same state) without serving them.
func TestClusterStandbyReplication(t *testing.T) {
	nodes := startCluster(t, []string{"alpha", "beta"}, func(i int, cfg *Config) {
		cfg.Cluster.ReplicationInterval = 25 * time.Millisecond
	})
	shadow := shadowPool(t)
	ids := clusterStreams(4)
	feedVia(t, nodes[0].url, shadow, ids, 0, 4)

	byID := map[string]*clusterTestNode{"alpha": nodes[0], "beta": nodes[1]}
	ring := nodes[0].s.Ring()
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range ids {
		succ := ring.Successors(id, 2)
		if len(succ) != 2 {
			t.Fatalf("stream %s has %d successors, want 2", id, len(succ))
		}
		standby := byID[succ[1].ID]
		for n, _ := standby.s.pool.LenOK(id); n != 4; n, _ = standby.s.pool.LenOK(id) {
			if time.Now().After(deadline) {
				t.Fatalf("standby %s never received stream %s (len=%d)", succ[1].ID, id, n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestClusterSealRejectsRetryably pins the mid-handoff contract: a sealed
// stream's owner answers 503 with Retry-After instead of applying, and
// serves again once unsealed.
func TestClusterSealRejectsRetryably(t *testing.T) {
	nodes := startCluster(t, []string{"alpha", "beta"}, nil)
	ring := nodes[0].s.Ring()
	ids := clusterStreams(8)

	// Pick a stream alpha owns and talk to alpha directly.
	var id string
	for _, cand := range ids {
		if ring.Owner(cand).ID == "alpha" {
			id = cand
			break
		}
	}
	if id == "" {
		t.Fatal("no stream owned by alpha among the candidates")
	}
	nodes[0].s.cl.seal([]string{id})
	x, y := point(0, 4)
	code, raw := doJSON(t, "POST", nodes[0].url+"/v1/streams/"+id+"/observe", map[string]any{"x": x, "y": y}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("sealed observe: code=%d body=%s, want 503", code, raw)
	}
	nodes[0].s.cl.unseal([]string{id})
	if code, raw := doJSON(t, "POST", nodes[0].url+"/v1/streams/"+id+"/observe", map[string]any{"x": x, "y": y}, nil); code != http.StatusOK {
		t.Fatalf("unsealed observe: code=%d body=%s, want 200", code, raw)
	}
}
