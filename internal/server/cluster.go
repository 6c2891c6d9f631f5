// Cluster serving: consistent-hash routing, live stream handoff, and
// warm-standby segment replication across privreg-server nodes.
//
// The stream namespace is sharded by the cluster.Ring: every node (and every
// ring-aware client) computes the same owner for every stream, so a request
// can land anywhere and be served correctly — a misrouted request is
// forwarded once over the wire protocol to its owner, marked with the
// forwarded flag so ring skew between two nodes can never bounce a request
// in a loop.
//
// Membership changes move streams with their full estimator state. The node
// losing ownership seals the affected streams (ingest nacks retryably),
// waits for their queues to drain, exports each stream's segment — the same
// CRC-framed file the checkpointer writes — and ships it to the new owner
// inside an import window (POST /v1/cluster/import begin/commit). The window
// commit carries the next ring, so ownership flips atomically on the
// destination exactly when it holds every byte; the source adopts the ring
// last and unseals. At every instant of the move at most one node will
// apply points to the stream, which is what keeps cluster serving
// bit-identical to a single node.
//
// Warm-standby replication reuses the same segment path continuously: each
// node periodically pushes segments of streams it owns to the stream's ring
// successors, so a node loss costs at most one replication interval of
// acknowledged points on streams whose owner died, and a graceful leave
// costs nothing.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"privreg"
	"privreg/internal/cluster"
	"privreg/internal/codec"
	"privreg/internal/wire"
)

// ClusterConfig turns a Server into one member of a serving cluster.
type ClusterConfig struct {
	// NodeID is this node's identity; it must appear in Nodes.
	NodeID string
	// Nodes is the boot membership. A node that will join an existing
	// cluster lists only itself and calls JoinCluster after construction.
	Nodes []cluster.Node
	// Replicas is the copy count per stream (owner + warm standbys).
	// 0 means cluster.DefaultReplicas.
	Replicas int
	// VNodes is the virtual points per node. 0 means cluster.DefaultVNodes.
	VNodes int
	// ReplicationInterval is the warm-standby push cadence. 0 means the 2s
	// default; negative disables replication (handoff still works).
	ReplicationInterval time.Duration

	// ProbeInterval enables gossip failure detection: every interval the node
	// probes one peer (SWIM-style: direct ping, then indirect via proxies,
	// then suspicion, then confirmed death and automatic standby promotion).
	// 0 disables membership — the cluster then heals only by operator action,
	// exactly as before this subsystem existed. privreg-server turns it on by
	// default in cluster mode.
	ProbeInterval time.Duration
	// ProbeTimeout is how long a probe waits for its ack before escalating.
	// 0 means ProbeInterval/2.
	ProbeTimeout time.Duration
	// SuspicionTimeout is how long a suspect has to refute (via a higher
	// incarnation, or any firsthand ack) before it is declared dead. 0 means
	// 3×ProbeInterval.
	SuspicionTimeout time.Duration
}

const (
	defaultReplicationInterval = 2 * time.Second
	// handoffQuiesceTimeout bounds how long a handoff waits for sealed
	// streams' queues to drain before giving up and unsealing.
	handoffQuiesceTimeout = 10 * time.Second
	clusterDialTimeout    = 5 * time.Second
)

// errImporting rejects data-plane requests while this node is inside an
// import window (or mid-join): retryable, the window is short.
var errImporting = errors.New("server: importing handoff segments; retry shortly")

// clusterState is the per-server cluster runtime.
type clusterState struct {
	s    *Server
	self cluster.Node

	// ring is the current ownership map; replaced wholesale (never mutated)
	// via adopt, so readers take one atomic load per request.
	ring atomic.Pointer[cluster.Ring]

	// importing counts open import windows (plus one for the whole of a
	// join). While positive, locally-owned data-plane requests nack
	// retryably so a half-imported stream can never serve or fork.
	importing atomic.Int32

	// sealed marks streams mid-handoff on the losing side; the ingester
	// front door rejects them retryably.
	sealMu sync.RWMutex
	sealed map[string]struct{}

	// clients caches one wire connection per peer, dialed lazily.
	cmu     sync.Mutex
	clients map[string]*wire.Client

	// replicated remembers the stream length last pushed per (peer, stream),
	// so steady-state replication ticks are cheap no-ops.
	repMu      sync.Mutex
	replicated map[string]int64

	// replay buffers batches replicated to this node as a standby: per
	// stream, the (start, rows) entries shipped by the owner right after it
	// applied them. Entries at or below the stream's imported segment length
	// are pruned (the segment subsumes them); the rest replay in offset order
	// when this node is promoted, which is what shrinks the unclean-death
	// data-loss window from one replication interval toward zero.
	replayMu sync.Mutex
	replay   map[string][]replayEntry

	// promoteMu serializes adoptPromoting, so one promotion finishes before
	// any caller can publish the ring it promotes for.
	promoteMu sync.Mutex

	// mem is the gossip failure detector runtime; nil when ProbeInterval is
	// unset (membership off).
	mem *membership

	httpc        *http.Client
	stopRepl     chan struct{}
	stopReplOnce sync.Once
	replWg       sync.WaitGroup
}

// replayEntry is one owner-applied batch buffered on a standby: the stream
// length before the batch plus one copy of the frame's row bytes, decoded
// only if this node is promoted and replays it.
type replayEntry struct {
	start int64
	rows  wire.RowBlock
}

// maxReplayEntries bounds the per-stream replay buffer; beyond it the oldest
// entries drop (the periodic segment push is the catch-up path, so dropping
// only widens the loss window back toward one replication interval).
const maxReplayEntries = 4096

// appendReplay appends e to a stream's replay buffer and drops the oldest
// entries beyond maxReplayEntries. The dropped slots are cleared before the
// slice moves past them: the backing array keeps them until the next
// reallocation, and their rows must not stay reachable that long.
func appendReplay(entries []replayEntry, e replayEntry) []replayEntry {
	entries = append(entries, e)
	if drop := len(entries) - maxReplayEntries; drop > 0 {
		clear(entries[:drop])
		entries = entries[drop:]
	}
	return entries
}

func newClusterState(s *Server, cfg *ClusterConfig) (*clusterState, error) {
	if cfg.NodeID == "" {
		return nil, errors.New("server: cluster node ID must be non-empty")
	}
	ring, err := cluster.New(1, cfg.Nodes, cfg.Replicas, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	self, ok := ring.NodeByID(cfg.NodeID)
	if !ok {
		return nil, fmt.Errorf("server: cluster node %q is not in the member list", cfg.NodeID)
	}
	cs := &clusterState{
		s:          s,
		self:       self,
		sealed:     make(map[string]struct{}),
		clients:    make(map[string]*wire.Client),
		replicated: make(map[string]int64),
		replay:     make(map[string][]replayEntry),
		httpc:      &http.Client{Timeout: 60 * time.Second},
		stopRepl:   make(chan struct{}),
	}
	cs.ring.Store(ring)
	s.met.setRing(ring.Version(), ring.Len())
	return cs, nil
}

// Ring returns the node's current ring.
func (cs *clusterState) Ring() *cluster.Ring { return cs.ring.Load() }

// adopt installs next if it is strictly newer than the ring held. Returns
// whether the ring changed. When membership is running, the detector's
// roster follows the ring: nodes the ring gained are added (a join), nodes
// it lost are marked left (their removal is already decided — graceful
// leave, or a death some survivor promoted for — so this detector must not
// re-litigate it).
func (cs *clusterState) adopt(next *cluster.Ring) bool {
	for {
		cur := cs.ring.Load()
		if next.Version() <= cur.Version() {
			return false
		}
		if cs.ring.CompareAndSwap(cur, next) {
			cs.s.met.setRing(next.Version(), next.Len())
			cs.s.logf("cluster: adopted ring v%d (%d members)", next.Version(), next.Len())
			if cs.mem != nil {
				cs.mem.reconcile(cur, next)
			}
			return true
		}
	}
}

// adoptPromoting is adopt for ring transitions that carry no handoff data —
// a death this node detected, or a survivor's broadcast of the shrunken ring
// — so any stream the new ring assigns to this node exists locally only as a
// warm standby. Those streams are promoted: sealed, their buffered
// replicated batches replayed on top of the imported segment, marked
// authoritative, and unsealed once the new ring is in place. A stream
// promoted here was owned by a node both rings agree is gone, so nobody else
// can be applying to it. Calls are serialized: a death this node detects and
// a peer's broadcast of the same ring arrive together, and without the lock
// the second caller would find the replay buffer already drained, adopt the
// ring and unseal while the first was still replaying, so a read routed by
// the new ring could miss a stream that is still being promoted.
func (cs *clusterState) adoptPromoting(next *cluster.Ring) bool {
	cs.promoteMu.Lock()
	defer cs.promoteMu.Unlock()
	cur := cs.ring.Load()
	if next.Version() <= cur.Version() {
		return false
	}
	promote := cs.standbyPromotions(cur, next)
	cs.seal(promote)
	promoted := 0
	replayed := 0
	for _, id := range promote {
		replayed += cs.replayInto(id)
		if cs.s.pool.Promote(id) || cs.s.pool.Has(id) {
			promoted++
		}
	}
	ok := cs.adopt(next)
	cs.unseal(promote)
	if len(promote) > 0 {
		cs.s.met.addPromotion(promoted, replayed)
		cs.s.logf("cluster: promoted %d standby streams (replayed %d buffered batches) for ring v%d", promoted, replayed, next.Version())
	}
	return ok
}

// standbyPromotions lists the streams next assigns to this node that cur did
// not: every locally held standby copy plus every stream with buffered
// replicated batches (a stream young enough to have no segment yet).
func (cs *clusterState) standbyPromotions(cur, next *cluster.Ring) []string {
	seen := make(map[string]struct{})
	var ids []string
	consider := func(id string) {
		if _, dup := seen[id]; dup {
			return
		}
		seen[id] = struct{}{}
		if next.Owner(id).ID == cs.self.ID && cur.Owner(id).ID != cs.self.ID {
			ids = append(ids, id)
		}
	}
	for _, id := range cs.s.pool.StandbyStreams() {
		consider(id)
	}
	cs.replayMu.Lock()
	for id := range cs.replay {
		consider(id)
	}
	cs.replayMu.Unlock()
	return ids
}

// replayInto applies a stream's buffered replicated batches in offset order:
// entries the imported segment already covers are skipped, entries that meet
// the stream's length exactly are applied, and the first gap stops the
// replay (batches past a gap were shipped but their predecessors lost; the
// stream stays consistent at the last contiguous offset). Returns how many
// batches applied.
func (cs *clusterState) replayInto(id string) int {
	cs.replayMu.Lock()
	entries := cs.replay[id]
	delete(cs.replay, id)
	cs.replayMu.Unlock()
	if len(entries) == 0 {
		return 0
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].start < entries[j].start })
	applied := 0
	for _, e := range entries {
		n, _ := cs.s.pool.LenOK(id)
		cur := int64(n)
		switch {
		case e.start+int64(e.rows.Rows) <= cur:
			continue // subsumed by the imported segment
		case e.start != cur:
			cs.s.logf("cluster: replay of %q stops at offset %d (next buffered batch starts at %d)", id, cur, e.start)
			return applied
		}
		xs := make([]float64, e.rows.Rows*cs.s.spec.Dim)
		ys := make([]float64, e.rows.Rows*e.rows.Outcomes)
		err := e.rows.DecodeRows(xs, ys)
		if err == nil {
			err = cs.s.pool.ObserveMultiFlat(id, cs.s.spec.Dim, xs, ys)
		}
		if err != nil {
			cs.s.logf("cluster: replaying %d buffered rows into %q failed: %v", e.rows.Rows, id, err)
			return applied
		}
		applied++
	}
	return applied
}

// ringJSON serializes the current ring for /v1/ring and RingAck.
func (cs *clusterState) ringJSON() (uint64, []byte, error) {
	r := cs.ring.Load()
	blob, err := json.Marshal(r)
	return r.Version(), blob, err
}

// --- Sealing (the losing side of a handoff) -------------------------------

func (cs *clusterState) isSealed(id string) bool {
	cs.sealMu.RLock()
	_, ok := cs.sealed[id]
	cs.sealMu.RUnlock()
	return ok
}

func (cs *clusterState) seal(ids []string) {
	cs.sealMu.Lock()
	for _, id := range ids {
		cs.sealed[id] = struct{}{}
	}
	cs.sealMu.Unlock()
}

func (cs *clusterState) unseal(ids []string) {
	cs.sealMu.Lock()
	for _, id := range ids {
		delete(cs.sealed, id)
	}
	cs.sealMu.Unlock()
}

// --- Peer connections ------------------------------------------------------

// client returns the cached wire connection to peer, dialing if needed.
func (cs *clusterState) client(peer cluster.Node) (*wire.Client, error) {
	if peer.WireAddr == "" {
		return nil, fmt.Errorf("server: peer %q has no wire address; cannot forward or replicate to it", peer.ID)
	}
	cs.cmu.Lock()
	defer cs.cmu.Unlock()
	if c := cs.clients[peer.ID]; c != nil {
		return c, nil
	}
	c, err := wire.Dial(peer.WireAddr, clusterDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("server: dialing peer %q at %s: %w", peer.ID, peer.WireAddr, err)
	}
	cs.clients[peer.ID] = c
	return c, nil
}

func (cs *clusterState) dropClient(peerID string, c *wire.Client) {
	cs.cmu.Lock()
	if cs.clients[peerID] == c {
		delete(cs.clients, peerID)
	}
	cs.cmu.Unlock()
	_ = c.Close()
}

func (cs *clusterState) closeClients() {
	cs.cmu.Lock()
	for id, c := range cs.clients {
		delete(cs.clients, id)
		_ = c.Close()
	}
	cs.cmu.Unlock()
}

// withPeer runs op against the peer's wire client, redialing once if the
// connection died underneath it (a NackError means the connection is healthy
// and the request was answered, so it is returned as-is).
func (cs *clusterState) withPeer(peer cluster.Node, op func(*wire.Client) error) error {
	c, err := cs.client(peer)
	if err != nil {
		return err
	}
	err = op(c)
	var ne *wire.NackError
	if err == nil || errors.As(err, &ne) {
		return err
	}
	cs.dropClient(peer.ID, c)
	if c, err = cs.client(peer); err != nil {
		return err
	}
	return op(c)
}

// --- Forwarding proxy ------------------------------------------------------

// forwardObserve relays a misrouted observe to the stream's owner. xs is
// row-major (len(ys)×Dim); from is the conditional-ingest offset (-1 for
// unconditional), carried through so a forwarded retry is still exactly-once
// on the owner.
func (cs *clusterState) forwardObserve(owner cluster.Node, id string, from int64, xs, ys []float64) (applied, length int, err error) {
	err = cs.withPeer(owner, func(c *wire.Client) error {
		var e error
		applied, length, e = c.ForwardObserve(id, from, xs, ys)
		return e
	})
	if err != nil {
		cs.s.met.addForwardError()
	} else {
		cs.s.met.addForwarded(false)
	}
	return applied, length, err
}

func (cs *clusterState) forwardEstimate(owner cluster.Node, id string, outcome int) (est []float64, length int, err error) {
	err = cs.withPeer(owner, func(c *wire.Client) error {
		var e error
		est, length, e = c.ForwardEstimate(id, outcome)
		return e
	})
	if err != nil {
		cs.s.met.addForwardError()
	} else {
		cs.s.met.addForwarded(true)
	}
	return est, length, err
}

// routeObserve decides an HTTP observe of a flat row batch: returns true
// when it wrote the response (gated by an import window, or forwarded to the
// owner); false means the caller serves locally. The import gate fires
// before anything else — including for requests this node would own —
// because while segments are arriving, serving locally could touch a stream
// the import is about to replace.
func (cs *clusterState) routeObserve(w http.ResponseWriter, id string, xs, ys []float64, from int64) bool {
	if cs.importing.Load() > 0 {
		writeVerdict(w, errImporting)
		return true
	}
	owner := cs.ring.Load().Owner(id)
	if owner.ID == cs.self.ID {
		return false
	}
	applied, length, err := cs.forwardObserve(owner, id, from, xs, ys)
	if err != nil {
		cs.writeForwardErr(w, err)
		return true
	}
	writeJSON(w, http.StatusOK, observeResponse{Applied: applied, Len: length})
	return true
}

// routeEstimate is routeObserve for the estimate path.
func (cs *clusterState) routeEstimate(w http.ResponseWriter, id string, outcome int) bool {
	if cs.importing.Load() > 0 {
		writeVerdict(w, errImporting)
		return true
	}
	owner := cs.ring.Load().Owner(id)
	if owner.ID == cs.self.ID {
		return false
	}
	est, length, err := cs.forwardEstimate(owner, id, outcome)
	if err != nil {
		cs.writeForwardErr(w, err)
		return true
	}
	writeJSON(w, http.StatusOK, estimateResponse{Estimate: est, Len: length})
	return true
}

// wireRouteObserve is routeObserve for the wire front end: it resolves c
// (forwarded result, or gate rejection) and returns true, or returns false
// for the caller to submit locally. Forwarded frames are never re-forwarded
// — the owner-side of a proxy hop serves locally even under ring skew, which
// is what makes a routing disagreement a one-hop detour instead of a loop.
func (cs *clusterState) wireRouteObserve(c *wireCompletion, forwarded bool, from int64, xs, ys []float64) bool {
	if cs.importing.Load() > 0 {
		c.err = errImporting
		return true
	}
	if forwarded {
		return false
	}
	owner := cs.ring.Load().Owner(c.id)
	if owner.ID == cs.self.ID {
		return false
	}
	c.applied, c.length, c.err = cs.forwardObserve(owner, c.id, from, xs, ys)
	c.err = forwardVerdict(c.err)
	return true
}

// wireRouteEstimate is wireRouteObserve for the estimate path.
func (cs *clusterState) wireRouteEstimate(c *wireCompletion, forwarded bool, outcome int) bool {
	if cs.importing.Load() > 0 {
		c.err = errImporting
		return true
	}
	if forwarded {
		return false
	}
	owner := cs.ring.Load().Owner(c.id)
	if owner.ID == cs.self.ID {
		return false
	}
	c.est, c.length, c.err = cs.forwardEstimate(owner, c.id, outcome)
	c.err = forwardVerdict(c.err)
	return true
}

// forwardVerdict normalizes a forwarding failure for the wire response path:
// the owner's own nack passes through verbatim (same code, same Retry-After);
// a transport failure becomes a retryable not-owner nack, telling the client
// to back off and re-resolve the ring rather than treating a dead peer as a
// permanent verdict.
func forwardVerdict(err error) error {
	if err == nil {
		return nil
	}
	var ne *wire.NackError
	if errors.As(err, &ne) {
		return err
	}
	return &wire.NackError{Code: wire.NackNotOwner, RetryAfter: 1, Msg: "owner unreachable: " + err.Error()}
}

// writeForwardErr maps an owner's wire answer back onto the HTTP edge with
// the same status contract a local rejection would have used: the nack (via
// forwardVerdict, which also turns transport failures into retryable
// not-owner rejections) classifies through the same shared verdict table as
// everything else, so both transports return identical machine-readable
// codes for the same failure.
func (cs *clusterState) writeForwardErr(w http.ResponseWriter, err error) {
	writeVerdict(w, forwardVerdict(err))
}

// --- Segment intake (wire FrameSegmentPush) --------------------------------

// acceptSegment imports a peer's pushed segment. Handoff pushes must arrive
// inside an import window; standby pushes must be for streams this node does
// not own and must carry a current ring version (a standby push for an owned
// stream, or one stamped with an older ring than this node routes by, means
// the sender's view is stale — importing it could clobber or resurrect
// promoted state).
func (cs *clusterState) acceptSegment(data []byte, length uint64, ringV uint64, standby bool) (string, error) {
	if cs.s.draining() {
		return "", errDraining
	}
	_, id, _, err := codec.DecodeSegment(data)
	if err != nil {
		return "", err
	}
	if standby {
		r := cs.ring.Load()
		if ringV < r.Version() {
			return "", fmt.Errorf("server: standby push for %q stamped with ring v%d, this node routes by v%d; refresh the ring", id, ringV, r.Version())
		}
		if r.Owner(id).ID == cs.self.ID {
			return "", fmt.Errorf("server: standby push for stream %q, which this node owns under ring v%d; refresh the ring", id, r.Version())
		}
	} else if cs.importing.Load() == 0 {
		return "", fmt.Errorf("server: handoff push for %q outside an import window; begin one via POST /v1/cluster/import", id)
	}
	if _, err := cs.s.pool.ImportSegment(data, int64(length)); err != nil {
		return "", err
	}
	if standby {
		// The segment subsumes every replicated batch at or below its length;
		// prune them so promotion replays only the tail the segment missed.
		cs.s.pool.MarkStandby(id)
		cs.pruneReplay(id, int64(length))
	} else {
		// A handoff import is authoritative by definition.
		cs.s.pool.Promote(id)
	}
	cs.s.met.addSegmentImported(standby)
	return id, nil
}

// pruneReplay drops buffered replicated batches fully covered by the first
// length rows of the stream.
func (cs *clusterState) pruneReplay(id string, length int64) {
	cs.replayMu.Lock()
	entries := cs.replay[id]
	kept := entries[:0]
	for _, e := range entries {
		if e.start+int64(e.rows.Rows) > length {
			kept = append(kept, e)
		}
	}
	// Clear the tail the filter vacated, so the pruned batches' rows do not
	// stay reachable through the backing array.
	clear(entries[len(kept):])
	if len(kept) == 0 {
		delete(cs.replay, id)
	} else {
		cs.replay[id] = kept
	}
	cs.replayMu.Unlock()
}

// acceptReplicate buffers one owner-applied batch shipped to this node as a
// warm standby (wire FrameReplicate). The row bytes are copied out of the
// frame buffer once — they outlive the frame — and decoded only if this
// node is promoted and replays them.
func (cs *clusterState) acceptReplicate(rep wire.Replicate) error {
	if cs.s.draining() {
		return errDraining
	}
	id := string(rep.ID)
	r := cs.ring.Load()
	if rep.RingV < r.Version() {
		return &wire.NackError{Code: wire.NackBadRequest,
			Msg: fmt.Sprintf("replicate for %q stamped with ring v%d, this node routes by v%d", id, rep.RingV, r.Version())}
	}
	if r.Owner(id).ID == cs.self.ID {
		return &wire.NackError{Code: wire.NackBadRequest,
			Msg: fmt.Sprintf("replicate for stream %q, which this node owns under ring v%d", id, r.Version())}
	}
	if k := cs.s.spec.outcomes(); rep.Outcomes != k {
		return &wire.NackError{Code: wire.NackBadRequest,
			Msg: fmt.Sprintf("replicate rows for %q carry %d responses, pool serves %d outcomes", id, rep.Outcomes, k)}
	}
	e := replayEntry{start: int64(rep.Start), rows: rep.RowBlock.Clone()}
	cs.replayMu.Lock()
	cs.replay[id] = appendReplay(cs.replay[id], e)
	cs.replayMu.Unlock()
	cs.s.pool.MarkStandby(id)
	cs.s.met.addReplicateBuffered()
	return nil
}

// replicateBatch is the ingester's applied hook under cluster serving: the
// batch just applied to stream id at offset start ships to the stream's warm
// standbys before the client's ack is released, so an acked batch survives
// the owner's unclean death once any standby holds it. Failures degrade to
// the periodic segment push (metriced, never fatal); peers the detector
// believes dead or suspect are skipped so a dead standby cannot stall ingest
// for a dial timeout per batch.
func (cs *clusterState) replicateBatch(id string, start int64, r *ingestReq) {
	ring := cs.ring.Load()
	if ring.Len() < 2 || ring.Replicas() < 2 || ring.Owner(id).ID != cs.self.ID {
		return
	}
	succ := ring.Successors(id, ring.Replicas())
	for _, peer := range succ[1:] {
		if cs.mem != nil && !cs.mem.reachable(peer.ID) {
			continue
		}
		err := cs.withPeer(peer, func(c *wire.Client) error {
			return c.Replicate(id, uint64(start), ring.Version(), r.xs, r.ys)
		})
		if err != nil {
			cs.s.met.addReplicationError()
			continue
		}
		cs.s.met.addReplicateShipped()
	}
}

// --- Handoff (membership change) ------------------------------------------

// handoff moves every stream this node owns under its current ring but not
// under next, then adopts next. Idempotent: a ring at or below the current
// version is a no-op.
func (cs *clusterState) handoff(next *cluster.Ring) (moved int, err error) {
	cur := cs.ring.Load()
	if next.Version() <= cur.Version() {
		return 0, nil
	}
	moves := make(map[string][]string)
	var all []string
	for _, id := range cs.s.pool.Streams() {
		if cur.Owner(id).ID != cs.self.ID {
			continue
		}
		if o := next.Owner(id); o.ID != cs.self.ID {
			moves[o.ID] = append(moves[o.ID], id)
			all = append(all, id)
		}
	}
	if len(all) == 0 {
		cs.adopt(next)
		return 0, nil
	}
	// Seal first so no new points land between quiesce and the ring flip;
	// the seal lifts only after this node holds next, at which point these
	// streams forward to their new owner.
	cs.seal(all)
	defer cs.unseal(all)
	deadline := time.Now().Add(handoffQuiesceTimeout)
	for _, id := range all {
		for cs.s.ing.pending(id) {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("server: handoff quiesce of %q timed out after %s", id, handoffQuiesceTimeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for destID, ids := range moves {
		dest, ok := next.NodeByID(destID)
		if !ok { // cannot happen: destID came from next
			return moved, fmt.Errorf("server: handoff destination %q missing from ring v%d", destID, next.Version())
		}
		if err := cs.pushHandoff(dest, ids, next); err != nil {
			return moved, err
		}
		moved += len(ids)
	}
	cs.adopt(next)
	cs.s.met.addHandoff(moved)
	cs.s.logf("cluster: handed off %d streams for ring v%d", moved, next.Version())
	return moved, nil
}

// pushHandoff ships ids to dest inside one import window. The commit carries
// next, so dest flips ownership exactly when it holds every segment.
func (cs *clusterState) pushHandoff(dest cluster.Node, ids []string, next *cluster.Ring) error {
	if err := cs.postImport(dest, "begin", nil); err != nil {
		return fmt.Errorf("server: opening import window on %q: %w", dest.ID, err)
	}
	push := func() error {
		for _, id := range ids {
			data, n, err := cs.s.pool.ExportSegment(id)
			if errors.Is(err, privreg.ErrUnknownStream) {
				continue // dropped while we were deciding; nothing to move
			}
			if err != nil {
				return fmt.Errorf("server: exporting %q: %w", id, err)
			}
			err = cs.withPeer(dest, func(c *wire.Client) error {
				return c.PushSegment(data, uint64(n), next.Version(), false)
			})
			if err != nil {
				return fmt.Errorf("server: pushing %q to %q: %w", id, dest.ID, err)
			}
			cs.s.met.addSegmentPushed(false)
		}
		return nil
	}
	if err := push(); err != nil {
		_ = cs.postImport(dest, "abort", nil)
		return err
	}
	if err := cs.postImport(dest, "commit", next); err != nil {
		return fmt.Errorf("server: committing import window on %q: %w", dest.ID, err)
	}
	return nil
}

// leave hands off everything this node owns and tells the survivors about
// the shrunken ring. Called from Close after the drain, so ingest is already
// rejecting and no seal is needed. Best-effort: a failed push costs at most
// one replication interval of points on that destination (the warm standby
// has the rest), and survivors converge via adopt-if-newer.
func (cs *clusterState) leave() error {
	cur := cs.ring.Load()
	if cur.Len() < 2 {
		return nil
	}
	next, err := cur.Remove(cs.self.ID)
	if err != nil {
		return err
	}
	moves := make(map[string][]string)
	for _, id := range cs.s.pool.Streams() {
		if cur.Owner(id).ID != cs.self.ID {
			continue
		}
		o := next.Owner(id)
		moves[o.ID] = append(moves[o.ID], id)
	}
	var firstErr error
	moved := 0
	for destID, ids := range moves {
		dest, _ := next.NodeByID(destID)
		if err := cs.pushHandoff(dest, ids, next); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		moved += len(ids)
	}
	for _, n := range next.Nodes() {
		if err := cs.postRing(n, next); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("server: announcing ring v%d to %q: %w", next.Version(), n.ID, err)
		}
	}
	cs.adopt(next)
	cs.s.met.addHandoff(moved)
	cs.s.logf("cluster: left ring (handed off %d streams to %d survivors)", moved, next.Len())
	return firstErr
}

// join asks a member of an existing cluster to admit this node. The import
// gate is held for the whole join: this node's boot ring says it owns
// everything, so until the joined ring arrives every data-plane request must
// be turned away retryably rather than served from a stream the incoming
// handoff is about to replace.
func (cs *clusterState) join(peer string) error {
	cs.importing.Add(1)
	defer cs.importing.Add(-1)
	body, err := json.Marshal(cs.self)
	if err != nil {
		return err
	}
	resp, err := cs.httpc.Post(peer+"/v1/cluster/join", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("server: joining via %s: %w", peer, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: join rejected by %s: %s: %s", peer, resp.Status, bytes.TrimSpace(raw))
	}
	ring := new(cluster.Ring)
	if err := json.Unmarshal(raw, ring); err != nil {
		return fmt.Errorf("server: decoding joined ring: %w", err)
	}
	if _, ok := ring.NodeByID(cs.self.ID); !ok {
		return fmt.Errorf("server: joined ring v%d does not contain this node", ring.Version())
	}
	cs.adopt(ring)
	cs.s.logf("cluster: joined as %q (ring v%d, %d members)", cs.self.ID, ring.Version(), ring.Len())
	return nil
}

// --- Control-plane HTTP ----------------------------------------------------

func (cs *clusterState) postJSON(node cluster.Node, path string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := cs.httpc.Post("http://"+node.Addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: %s: %s", node.ID, path, resp.Status, bytes.TrimSpace(raw))
	}
	return nil
}

func (cs *clusterState) postRing(node cluster.Node, ring *cluster.Ring) error {
	if node.ID == cs.self.ID {
		cs.adopt(ring)
		return nil
	}
	return cs.postJSON(node, "/v1/cluster/ring", ring)
}

// importPhase is the body of POST /v1/cluster/import.
type importPhase struct {
	Phase string          `json:"phase"` // begin | commit | abort
	Ring  json.RawMessage `json:"ring,omitempty"`
}

func (cs *clusterState) postImport(node cluster.Node, phase string, ring *cluster.Ring) error {
	p := importPhase{Phase: phase}
	if ring != nil {
		blob, err := json.Marshal(ring)
		if err != nil {
			return err
		}
		p.Ring = blob
	}
	return cs.postJSON(node, "/v1/cluster/import", p)
}

// handleRing serves GET /v1/ring: the document ring-aware clients route by.
func (cs *clusterState) handleRing(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, cs.ring.Load())
}

// handleClusterRing adopts a peer's ring if it is newer (POST /v1/cluster/ring).
// The adoption promotes: a broadcast ring arrives with no handoff data (a
// graceful leaver pushed its streams separately; a death broadcast has no
// data to push), so any stream the new ring assigns to this node is served
// from its warm-standby copy plus the replicated-batch buffer.
func (cs *clusterState) handleClusterRing(w http.ResponseWriter, r *http.Request) {
	ring := new(cluster.Ring)
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(ring); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: decoding ring: %w", err))
		return
	}
	adopted := cs.adoptPromoting(ring)
	writeJSON(w, http.StatusOK, map[string]any{
		"adopted": adopted,
		"version": cs.ring.Load().Version(),
	})
}

// handleClusterImport opens, commits, or aborts an import window
// (POST /v1/cluster/import). A commit may carry the ring the window was for.
func (cs *clusterState) handleClusterImport(w http.ResponseWriter, r *http.Request) {
	var p importPhase
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&p); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: decoding import phase: %w", err))
		return
	}
	switch p.Phase {
	case "begin":
		cs.importing.Add(1)
	case "commit", "abort":
		if p.Phase == "commit" && len(p.Ring) > 0 {
			ring := new(cluster.Ring)
			if err := json.Unmarshal(p.Ring, ring); err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("server: decoding commit ring: %w", err))
				return
			}
			cs.adopt(ring)
		}
		if !cs.endImport() {
			writeError(w, http.StatusConflict, errors.New("server: no import window is open"))
			return
		}
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: unknown import phase %q", p.Phase))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"importing": cs.importing.Load() > 0})
}

// endImport closes one import window; false if none was open.
func (cs *clusterState) endImport() bool {
	for {
		cur := cs.importing.Load()
		if cur <= 0 {
			return false
		}
		if cs.importing.CompareAndSwap(cur, cur-1) {
			return true
		}
	}
}

// handleClusterJoin admits a new node (POST /v1/cluster/join, body: the
// node). The receiving member coordinates: it builds the grown ring, asks
// every current member (itself included) to hand off the streams the new
// ring takes from it, and answers the joiner with the ring once every
// member has moved its share.
func (cs *clusterState) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	var n cluster.Node
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&n); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: decoding joining node: %w", err))
		return
	}
	cur := cs.ring.Load()
	if have, ok := cur.NodeByID(n.ID); ok {
		if have == n {
			writeJSON(w, http.StatusOK, cur) // idempotent re-join
			return
		}
		writeError(w, http.StatusConflict, fmt.Errorf("server: node ID %q is already a member with different addresses", n.ID))
		return
	}
	next, err := cur.Add(n)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	for _, m := range cur.Nodes() {
		if m.ID == cs.self.ID {
			if _, err := cs.handoff(next); err != nil {
				writeError(w, http.StatusBadGateway, fmt.Errorf("server: local handoff for join of %q: %w", n.ID, err))
				return
			}
			continue
		}
		if err := cs.postJSON(m, "/v1/cluster/handoff", next); err != nil {
			writeError(w, http.StatusBadGateway, fmt.Errorf("server: member handoff for join of %q: %w", n.ID, err))
			return
		}
	}
	writeJSON(w, http.StatusOK, next)
}

// handleClusterHandoff asks this member to move its share of streams for the
// posted ring and adopt it (POST /v1/cluster/handoff).
func (cs *clusterState) handleClusterHandoff(w http.ResponseWriter, r *http.Request) {
	ring := new(cluster.Ring)
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(ring); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: decoding handoff ring: %w", err))
		return
	}
	moved, err := cs.handoff(ring)
	if err != nil {
		writeError(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"moved": moved, "version": cs.ring.Load().Version()})
}

// --- Failure detection and self-healing ------------------------------------

// startMembership boots the gossip failure detector when the config enables
// it (ProbeInterval > 0). Off by default at the library level so embedded and
// test clusters keep their exact pre-membership behavior; the privreg-server
// CLI enables it in cluster mode.
func (cs *clusterState) startMembership(cfg *ClusterConfig) {
	if cfg.ProbeInterval <= 0 {
		return
	}
	cs.mem = newMembership(cs, cfg)
	cs.mem.start()
	cs.s.logf("cluster: membership on (probe %s, suspicion %s)", cs.mem.det.Config().ProbeInterval, cs.mem.det.Config().SuspicionTimeout)
}

func (cs *clusterState) stopMembership() {
	if cs.mem != nil {
		cs.mem.stop()
	}
}

// promoteDead reacts to a confirmed death: every survivor independently
// computes the same v+1 ring with the dead node removed (Remove is
// deterministic in the member list, so no coordination round is needed),
// promotes its standby copies of the dead node's streams, and best-effort
// broadcasts the ring so peers whose detectors are a beat behind converge
// immediately instead of after their own suspicion timeout.
func (cs *clusterState) promoteDead(dead string) {
	cur := cs.ring.Load()
	if _, ok := cur.NodeByID(dead); !ok {
		return // already removed (a peer's broadcast beat our detector)
	}
	next, err := cur.Remove(dead)
	if err != nil {
		cs.s.logf("cluster: cannot remove dead node %q from ring v%d: %v", dead, cur.Version(), err)
		return
	}
	cs.s.logf("cluster: node %q confirmed dead; transitioning to ring v%d", dead, next.Version())
	if !cs.adoptPromoting(next) {
		return
	}
	for _, n := range next.Nodes() {
		if n.ID == cs.self.ID {
			continue
		}
		if err := cs.postJSON(n, "/v1/cluster/ring", next); err != nil {
			cs.s.logf("cluster: announcing ring v%d to %q failed: %v (its detector will converge on its own)", next.Version(), n.ID, err)
		}
	}
}

// handleMembers serves GET /v1/cluster/members: this node's view of every
// member — state, incarnation, last-ack age — plus its standby stream count.
// With membership off it reports the ring roster with no liveness claims.
func (cs *clusterState) handleMembers(w http.ResponseWriter, r *http.Request) {
	type memberVM struct {
		ID          string  `json:"id"`
		State       string  `json:"state"`
		Incarnation uint64  `json:"incarnation"`
		LastAckAgeS float64 `json:"last_ack_age_s,omitempty"`
		Self        bool    `json:"self,omitempty"`
	}
	body := struct {
		Node        string     `json:"node"`
		RingVersion uint64     `json:"ring_version"`
		Detection   bool       `json:"failure_detection"`
		Standby     int        `json:"standby_streams"`
		Members     []memberVM `json:"members"`
	}{
		Node:        cs.self.ID,
		RingVersion: cs.ring.Load().Version(),
		Detection:   cs.mem != nil,
		Standby:     len(cs.s.pool.StandbyStreams()),
	}
	if cs.mem == nil {
		for _, n := range cs.ring.Load().Nodes() {
			body.Members = append(body.Members, memberVM{ID: n.ID, State: "unknown", Self: n.ID == cs.self.ID})
		}
		writeJSON(w, http.StatusOK, body)
		return
	}
	now := time.Now()
	for _, m := range cs.mem.members() {
		vm := memberVM{ID: m.ID, State: m.State.String(), Incarnation: m.Incarnation, Self: m.ID == cs.self.ID}
		if !vm.Self && !m.LastAck.IsZero() {
			vm.LastAckAgeS = now.Sub(m.LastAck).Seconds()
		}
		body.Members = append(body.Members, vm)
	}
	writeJSON(w, http.StatusOK, body)
}

// --- Warm-standby replication ----------------------------------------------

func (cs *clusterState) startReplication(interval time.Duration) {
	if interval < 0 {
		return
	}
	if interval == 0 {
		interval = defaultReplicationInterval
	}
	cs.replWg.Add(1)
	go func() {
		defer cs.replWg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-cs.stopRepl:
				return
			case <-t.C:
				cs.replicateOnce()
			}
		}
	}()
}

// stopReplication is idempotent: an unclean shutdown may race a graceful
// Close.
func (cs *clusterState) stopReplication() {
	cs.stopReplOnce.Do(func() { close(cs.stopRepl) })
	cs.replWg.Wait()
}

// replicateOnce pushes one round of standby copies: for every stream this
// node owns whose length changed since the last push to a given successor,
// export once and ship. Errors are logged and retried next tick — standby
// freshness is best-effort by design; correctness never depends on it.
func (cs *clusterState) replicateOnce() {
	ring := cs.ring.Load()
	if ring.Len() < 2 || ring.Replicas() < 2 {
		return
	}
	for _, id := range cs.s.pool.Streams() {
		if ring.Owner(id).ID != cs.self.ID || cs.isSealed(id) {
			continue
		}
		succ := ring.Successors(id, ring.Replicas())
		var data []byte
		exported := int64(-1)
		for _, peer := range succ[1:] {
			if cs.mem != nil && !cs.mem.reachable(peer.ID) {
				continue // don't burn a dial timeout on a peer believed down
			}
			key := peer.ID + "\x00" + id
			cs.repMu.Lock()
			last, seen := cs.replicated[key]
			cs.repMu.Unlock()
			if n, _ := cs.s.pool.LenOK(id); seen && last == int64(n) {
				continue
			}
			if exported < 0 {
				var err error
				data, exported, err = cs.s.pool.ExportSegment(id)
				if err != nil {
					break // dropped or faulting; next tick sorts it out
				}
			}
			err := cs.withPeer(peer, func(c *wire.Client) error {
				return c.PushSegment(data, uint64(exported), ring.Version(), true)
			})
			if err != nil {
				cs.s.met.addReplicationError()
				cs.s.logf("cluster: standby push of %q to %q failed: %v", id, peer.ID, err)
				continue
			}
			cs.s.met.addSegmentPushed(true)
			cs.repMu.Lock()
			cs.replicated[key] = exported
			cs.repMu.Unlock()
		}
	}
}
