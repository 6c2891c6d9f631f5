package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"privreg/internal/cluster"
	"privreg/internal/server"
	"privreg/internal/wire"
)

// clusterResult is the machine-readable form of the cluster-throughput
// probe: a 3-node in-process cluster on loopback, driven ring-aware over the
// binary wire protocol (every stream routed client-side to its owner, as
// privreg-loadgen -cluster does). points_per_sec is the aggregate ingest
// rate across all nodes.
//
// Read it against throughput/edge/binary/points_per_sec: on a multi-core
// host the cluster rate approaches nodes× the single-server rate because the
// shards apply points in parallel; on a single core the two rates are
// necessarily about equal — the nodes time-slice one CPU, so the probe then
// measures cluster overhead (extra listeners, ring routing), not scaling.
type clusterResult struct {
	Proto           string  `json:"proto"` // always "binary"
	Mechanism       string  `json:"mechanism"`
	Nodes           int     `json:"nodes"`
	Streams         int     `json:"streams"`
	PointsPerStream int     `json:"points_per_stream"`
	Dim             int     `json:"d"`
	Batch           int     `json:"batch"`
	PointsPerSec    float64 `json:"points_per_sec"`
}

const (
	clusterNodes   = 3
	clusterStreams = 6 // ~2 per node; same batch/dim shape as the edge probe
)

// benchNode is one in-process cluster member: a server plus its two
// listeners.
type benchNode struct {
	srv  *server.Server
	hs   *http.Server
	wire net.Listener
}

// runClusterProbe boots a clusterNodes-member cluster on loopback, feeds
// clusterStreams streams of perStream points each through the stream's owner
// over the wire protocol, and returns the aggregate rate. Replication is
// disabled so the probe measures the serving path, not the standby fanout.
func runClusterProbe(quick bool, seed int64) (*clusterResult, error) {
	perStream := 1 << 15
	if quick {
		perStream = 1 << 13
	}

	// All listeners first, so every node's config can name every member.
	nodes := make([]benchNode, clusterNodes)
	peerList := make([]struct{ http, wire net.Listener }, clusterNodes)
	var peers []struct {
		id         string
		http, wire string
	}
	for i := range peerList {
		hl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		wl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			hl.Close()
			return nil, err
		}
		peerList[i].http, peerList[i].wire = hl, wl
		peers = append(peers, struct {
			id         string
			http, wire string
		}{fmt.Sprintf("bench-%d", i), hl.Addr().String(), wl.Addr().String()})
	}
	memberNodes := make([]cluster.Node, clusterNodes)
	for i, p := range peers {
		memberNodes[i] = cluster.Node{ID: p.id, Addr: p.http, WireAddr: p.wire}
	}

	defer func() {
		for _, n := range nodes {
			if n.hs != nil {
				n.hs.Close()
			}
			if n.srv != nil {
				n.srv.Close()
			}
		}
	}()
	for i := range nodes {
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
			Cluster: &server.ClusterConfig{
				NodeID:              peers[i].id,
				Nodes:               memberNodes,
				ReplicationInterval: -1,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("cluster probe node %d: %w", i, err)
		}
		nodes[i].srv = srv
		nodes[i].hs = &http.Server{Handler: srv.Handler()}
		go nodes[i].hs.Serve(peerList[i].http)
		go srv.ServeWire(peerList[i].wire)
	}

	// Ring-aware clients: one wire connection per node, each stream driven
	// through its owner so no request pays the forwarding hop.
	ring := nodes[0].srv.Ring()
	clients := make(map[string]*wire.Client, clusterNodes)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for _, p := range peers {
		c, err := wire.Dial(p.wire, 5*time.Second)
		if err != nil {
			return nil, fmt.Errorf("cluster probe dial %s: %w", p.id, err)
		}
		clients[p.id] = c
	}

	errs := make(chan error, clusterStreams)
	start := time.Now()
	for s := 0; s < clusterStreams; s++ {
		id := fmt.Sprintf("cluster-%d", s)
		wc := clients[ring.Owner(id).ID]
		go func() {
			for lo := 0; lo < perStream; lo += edgeBatch {
				hi := lo + edgeBatch
				if hi > perStream {
					hi = perStream
				}
				if err := edgeSendWire(wc, id, lo, hi); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for s := 0; s < clusterStreams; s++ {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)

	// Every point must have landed on its owner — a cluster that misroutes
	// or drops fails the probe instead of winning it.
	for s := 0; s < clusterStreams; s++ {
		id := fmt.Sprintf("cluster-%d", s)
		var owner *server.Server
		for i, p := range peers {
			if p.id == ring.Owner(id).ID {
				owner = nodes[i].srv
			}
		}
		if n, _ := owner.Pool().LenOK(id); n != perStream {
			return nil, fmt.Errorf("stream %s holds %d points on its owner after the run, want %d", id, n, perStream)
		}
	}
	return &clusterResult{
		Proto:           "binary",
		Mechanism:       "nonprivate",
		Nodes:           clusterNodes,
		Streams:         clusterStreams,
		PointsPerStream: perStream,
		Dim:             edgeDim,
		Batch:           edgeBatch,
		PointsPerSec:    float64(clusterStreams*perStream) / elapsed.Seconds(),
	}, nil
}

// runClusterCLI is the -cluster entry point: run just the cluster probe and
// print the rate (human-readably, or as one JSON document).
func runClusterCLI(quick bool, seed int64, asJSON bool) int {
	res, err := runClusterProbe(quick, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		return 0
	}
	fmt.Printf("cluster %-6s: %12.0f points/sec (%d nodes, %d streams × %d points, d=%d, batch=%d, mechanism %s)\n",
		res.Proto, res.PointsPerSec, res.Nodes, res.Streams, res.PointsPerStream, res.Dim, res.Batch, res.Mechanism)
	return 0
}
