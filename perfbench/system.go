package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"privreg/internal/cluster"
	"privreg/internal/server"
)

// node is one in-process server with its HTTP and wire listeners.
type node struct {
	id       string
	srv      *server.Server
	hs       *http.Server
	httpAddr string
	wireAddr string
}

// system is the booted system under test: one node, or a cluster of nodes
// on loopback. close stops every server and listener, waits for their serve
// loops, and removes the spill directories.
type system struct {
	nodes []*node
	dir   string // spill root of this system ("" when resident)
	wg    sync.WaitGroup
	once  sync.Once
	err   error
}

// boot starts nodes servers for spec. storeCap > 0 gives each node a spill
// store under dir. With more than one node the servers form a cluster with
// the given replica count and the default standby push cadence. Periodic
// checkpoints and membership probes are off, so no background work lands
// inside some runs and not others.
func boot(spec server.Spec, nodes, replicas, storeCap int, dir string) (*system, error) {
	sys := &system{}
	if storeCap > 0 {
		sys.dir = dir
	}
	lns := make([]net.Listener, 0, 2*nodes)
	fail := func(err error) (*system, error) {
		for _, ln := range lns {
			ln.Close()
		}
		return nil, errors.Join(err, sys.close())
	}
	members := make([]cluster.Node, nodes)
	for i := range members {
		hl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lns = append(lns, hl)
		wl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lns = append(lns, wl)
		members[i] = cluster.Node{ID: nodeID(i), Addr: hl.Addr().String(), WireAddr: wl.Addr().String()}
	}
	for i, m := range members {
		cfg := server.Config{Spec: spec, CheckpointInterval: -1}
		if storeCap > 0 {
			cfg.CheckpointDir = filepath.Join(dir, m.ID)
			cfg.StoreCap = storeCap
		}
		if nodes > 1 {
			cfg.Cluster = &server.ClusterConfig{NodeID: m.ID, Nodes: members, Replicas: replicas}
		}
		srv, err := server.New(cfg)
		if err != nil {
			return fail(fmt.Errorf("booting %s: %w", m.ID, err))
		}
		n := &node{id: m.ID, srv: srv, hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}, httpAddr: m.Addr, wireAddr: m.WireAddr}
		sys.nodes = append(sys.nodes, n)
		hl, wl := lns[2*i], lns[2*i+1]
		sys.wg.Add(2)
		go func() {
			defer sys.wg.Done()
			_ = n.hs.Serve(hl) // returns http.ErrServerClosed from close
		}()
		go func() {
			defer sys.wg.Done()
			_ = n.srv.ServeWire(wl) // returns when the drain closes the listener
		}()
	}
	lns = nil
	fmt.Fprintf(os.Stderr, "perfbench: listening on %s\n", strings.Join(sys.addrs(), " "))
	return sys, nil
}

// nodeID names the i-th node of a system.
func nodeID(i int) string { return fmt.Sprintf("node-%d", i) }

// addrs lists every listener address the system opened.
func (s *system) addrs() []string {
	var out []string
	for _, n := range s.nodes {
		out = append(out, n.httpAddr, n.wireAddr)
	}
	return out
}

// owner returns the node that owns stream id (the only node standalone).
func (s *system) owner(id string) *node {
	if len(s.nodes) == 1 {
		return s.nodes[0]
	}
	want := s.nodes[0].srv.Ring().Owner(id).ID
	for _, n := range s.nodes {
		if n.id == want {
			return n
		}
	}
	return nil
}

// close drains each server (a clustered node hands its streams to the
// survivors, which is why nodes close one at a time while the rest still
// listen), closes its HTTP listener and connections, waits for every serve
// loop, and removes the spill root. The final checkpoint fsyncs its files
// and the removal is committed before close returns, so the teardown's own
// writes do not land in whatever is measured next. Idempotent.
func (s *system) close() error {
	s.once.Do(func() {
		var errs []error
		for _, n := range s.nodes {
			errs = append(errs, n.srv.Close(), n.hs.Close())
		}
		s.wg.Wait()
		if s.dir != "" {
			errs = append(errs, os.RemoveAll(s.dir), syncDir(filepath.Dir(s.dir)))
		}
		s.err = errors.Join(errs...)
	})
	return s.err
}

// syncDir fsyncs dir, which commits the removal of the entries under it.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil // the system never created it
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
