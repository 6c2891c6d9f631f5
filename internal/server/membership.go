package server

import (
	"sync"
	"time"

	"privreg/internal/cluster"
	"privreg/internal/wire"
)

// membership is the runtime around cluster.Detector: a ticker drives the
// detector's pure state machine with the real clock, the returned actions
// (ping, ping-req) execute over the same cached wire clients the forwarding
// proxy uses, ack and gossip results feed back in, and EventDead triggers the
// ring transition that promotes warm standbys. Everything the detector
// decides is testable without this file (injected clock, no sleeps); this
// file only moves bytes and time.
type membership struct {
	cs  *clusterState
	mu  sync.Mutex // guards det
	det *cluster.Detector

	probeTimeout time.Duration
	tick         time.Duration

	stopOnce sync.Once
	stopc    chan struct{}
	wg       sync.WaitGroup
}

func newMembership(cs *clusterState, cfg *ClusterConfig) *membership {
	dcfg := cluster.DetectorConfig{
		Self:             cs.self.ID,
		ProbeInterval:    cfg.ProbeInterval,
		ProbeTimeout:     cfg.ProbeTimeout,
		SuspicionTimeout: cfg.SuspicionTimeout,
	}
	peers := make([]string, 0, cs.Ring().Len())
	for _, n := range cs.Ring().Nodes() {
		peers = append(peers, n.ID)
	}
	det := cluster.NewDetector(dcfg, peers, time.Now())
	// The tick only needs to be fine enough to observe probe timeouts
	// promptly; a quarter of the probe timeout keeps detection latency within
	// ~25% of the configured timings without spinning.
	tick := det.Config().ProbeTimeout / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	return &membership{
		cs:           cs,
		det:          det,
		probeTimeout: det.Config().ProbeTimeout,
		tick:         tick,
		stopc:        make(chan struct{}),
	}
}

func (m *membership) start() {
	m.wg.Add(1)
	go m.run()
}

// stop halts the probe loop and waits for in-flight probes to land.
// Idempotent: an unclean shutdown may race a graceful Close.
func (m *membership) stop() {
	m.stopOnce.Do(func() { close(m.stopc) })
	m.wg.Wait()
}

func (m *membership) run() {
	defer m.wg.Done()
	t := time.NewTicker(m.tick)
	defer t.Stop()
	for {
		select {
		case <-m.stopc:
			return
		case now := <-t.C:
			m.mu.Lock()
			actions, events := m.det.Tick(now)
			m.mu.Unlock()
			m.handleEvents(events)
			for _, a := range actions {
				a := a
				m.wg.Add(1)
				go func() {
					defer m.wg.Done()
					m.execute(a)
				}()
			}
		}
	}
}

// execute performs one detector action over the wire: a direct ping, or an
// indirect probe relayed through each proxy. Acks and piggybacked gossip feed
// straight back into the detector.
func (m *membership) execute(a cluster.Action) {
	switch a.Kind {
	case cluster.ActionPing:
		g, err := m.probe(a.Target)
		if err == nil {
			m.handleAck(a.Target)
			m.handleGossip(g)
		}
	case cluster.ActionPingReq:
		for _, proxy := range a.Proxies {
			node, ok := m.cs.Ring().NodeByID(proxy)
			if !ok {
				continue
			}
			table := m.gossipTable()
			var g wire.Gossip
			err := m.cs.withPeer(node, func(c *wire.Client) error {
				var e error
				g, e = c.PingReq(m.cs.self.ID, a.Target, table, m.probeTimeout)
				return e
			})
			if err != nil {
				continue
			}
			if g.OK {
				m.handleAck(a.Target)
			}
			m.handleGossip(g)
		}
	}
}

// probe sends one direct ping to target and returns its gossip answer.
func (m *membership) probe(target string) (wire.Gossip, error) {
	node, ok := m.cs.Ring().NodeByID(target)
	if !ok {
		// Not in the ring (a dead node already removed): answer the detector
		// with silence; it will finish declaring the member dead or left.
		return wire.Gossip{}, errPeerGone
	}
	table := m.gossipTable()
	var g wire.Gossip
	err := m.cs.withPeer(node, func(c *wire.Client) error {
		var e error
		g, e = c.Ping(m.cs.self.ID, table, m.probeTimeout)
		return e
	})
	return g, err
}

var errPeerGone = &wire.NackError{Code: wire.NackUnknownStream, Msg: "peer not in ring"}

// handleAck feeds a firsthand ack into the detector.
func (m *membership) handleAck(id string) {
	m.mu.Lock()
	events := m.det.HandleAck(id, time.Now())
	m.mu.Unlock()
	m.handleEvents(events)
}

// handleGossip merges a peer's table into the detector.
func (m *membership) handleGossip(g wire.Gossip) {
	if g.From == "" {
		return
	}
	m.mu.Lock()
	events := m.det.HandleGossip(g.From, fromWireMembers(g.Members), time.Now())
	m.mu.Unlock()
	m.handleEvents(events)
}

// handlePing answers an incoming Ping frame: merge the sender's table, reply
// with ours (the reply IS the ack — gossip rides every probe both ways).
func (m *membership) handlePing(from string, table []wire.Member) wire.Gossip {
	m.mu.Lock()
	events := m.det.HandleGossip(from, fromWireMembers(table), time.Now())
	g := wire.Gossip{OK: true, From: m.cs.self.ID, Members: toWireMembers(m.det.Gossip())}
	m.mu.Unlock()
	m.handleEvents(events)
	return g
}

// handlePingReq answers an incoming PingReq frame: probe the target on the
// requester's behalf and report whether it acked. The probe runs inline
// (bounded by probeTimeout) — membership traffic shares the peer's cached
// connection, and a blocked slot for one timeout is acceptable at control-
// plane rates.
func (m *membership) handlePingReq(from, target string, table []wire.Member) wire.Gossip {
	m.mu.Lock()
	events := m.det.HandleGossip(from, fromWireMembers(table), time.Now())
	m.mu.Unlock()
	m.handleEvents(events)
	ok := false
	if g, err := m.probe(target); err == nil {
		ok = true
		m.handleAck(target)
		m.handleGossip(g)
	}
	m.mu.Lock()
	g := wire.Gossip{OK: ok, From: m.cs.self.ID, Members: toWireMembers(m.det.Gossip())}
	m.mu.Unlock()
	return g
}

// handleEvents reacts to detector transitions: metrics for every edge,
// promotion for deaths.
func (m *membership) handleEvents(events []cluster.Event) {
	for _, e := range events {
		switch e.Kind {
		case cluster.EventSuspected:
			m.cs.s.met.addMembershipEvent("suspected")
			m.cs.s.logf("cluster: suspect %q (incarnation %d); awaiting refutation", e.ID, e.Incarnation)
		case cluster.EventRefuted, cluster.EventSelfRefuted:
			m.cs.s.met.addMembershipEvent("refuted")
			m.cs.s.logf("cluster: suspicion of %q refuted (incarnation %d)", e.ID, e.Incarnation)
		case cluster.EventJoined:
			m.cs.s.met.addMembershipEvent("joined")
		case cluster.EventLeft:
			m.cs.s.met.addMembershipEvent("left")
		case cluster.EventDead:
			m.cs.s.met.addMembershipEvent("dead")
			m.cs.promoteDead(e.ID)
		}
	}
}

// reconcile follows a ring adoption: members the ring gained join the
// detector, members it lost are marked left — the removal is already
// settled (graceful leave, or a death some survivor promoted for), so this
// detector stops probing them and never re-declares the death.
func (m *membership) reconcile(cur, next *cluster.Ring) {
	m.mu.Lock()
	now := time.Now()
	for _, n := range next.Nodes() {
		if _, ok := cur.NodeByID(n.ID); !ok {
			m.det.Add(n.ID, now)
		}
	}
	for _, n := range cur.Nodes() {
		if _, ok := next.NodeByID(n.ID); !ok {
			m.det.MarkLeft(n.ID)
		}
	}
	m.mu.Unlock()
}

// reachable reports whether the detector currently believes the member can
// answer (alive; suspects and the dead are skipped by replication shipping
// so a down peer cannot stall the ingest path on dial timeouts).
func (m *membership) reachable(id string) bool {
	m.mu.Lock()
	st, ok := m.det.State(id)
	m.mu.Unlock()
	return !ok || st == cluster.StateAlive
}

// members snapshots the detector's introspection view.
func (m *membership) members() []cluster.Member {
	m.mu.Lock()
	out := m.det.Members()
	m.mu.Unlock()
	return out
}

// counts summarizes the local view for /readyz.
func (m *membership) counts() map[string]int {
	out := map[string]int{"alive": 0, "suspect": 0, "dead": 0, "left": 0}
	for _, mem := range m.members() {
		switch mem.State {
		case cluster.StateAlive:
			out["alive"]++
		case cluster.StateSuspect:
			out["suspect"]++
		case cluster.StateDead:
			out["dead"]++
		case cluster.StateLeft:
			out["left"]++
		}
	}
	return out
}

// gossipTable snapshots the detector's table in wire form.
func (m *membership) gossipTable() []wire.Member {
	m.mu.Lock()
	t := toWireMembers(m.det.Gossip())
	m.mu.Unlock()
	return t
}

func toWireMembers(infos []cluster.MemberInfo) []wire.Member {
	out := make([]wire.Member, len(infos))
	for i, mi := range infos {
		out[i] = wire.Member{ID: mi.ID, State: uint8(mi.State), Incarnation: mi.Incarnation}
	}
	return out
}

func fromWireMembers(ms []wire.Member) []cluster.MemberInfo {
	out := make([]cluster.MemberInfo, len(ms))
	for i, m := range ms {
		out[i] = cluster.MemberInfo{ID: m.ID, State: cluster.MemberState(m.State), Incarnation: m.Incarnation}
	}
	return out
}
