package server

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"privreg"
)

// latencyBuckets are the upper bounds (seconds) of the request-latency
// histogram, a log-ish ladder from 100µs to 10s. The terminal +Inf bucket is
// implicit.
var latencyBuckets = [16]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram. Guarded by metrics.mu.
type histogram struct {
	counts [len(latencyBuckets) + 1]int64 // counts[i] observations ≤ bucket i; last is +Inf
	sum    float64
	total  int64
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(latencyBuckets[:], seconds)
	h.counts[i]++
	h.sum += seconds
	h.total++
}

// routeKey identifies one (route, status-code) request counter.
type routeKey struct {
	route string
	code  int
}

// metrics is the server's request/ingestion/checkpoint instrumentation. It is
// deliberately dependency-free: a mutex-guarded registry rendered in the
// Prometheus text exposition format (and as JSON) at scrape time. Per-request
// cost is one lock acquisition and a couple of map/array updates, which is
// noise next to the estimator work behind each request.
type metrics struct {
	mu       sync.Mutex
	requests map[routeKey]int64
	latency  map[string]*histogram

	ingestedPoints   int64
	appliedBatches   int64 // pool ingest calls issued by the ingester
	coalescedNonUnit int64 // applied batches that merged >1 queued request
	rejectedFull     int64 // 429s: per-stream queue bound exceeded
	rejectedDraining int64 // 503s: ingestion after drain started

	// Cluster serving (all zero and unexported from scrapes when the server
	// runs standalone).
	clustered          bool
	ringVersion        uint64
	ringMembers        int64
	forwardedObserves  int64 // misrouted observes relayed to their owner
	forwardedEstimates int64
	forwardErrors      int64 // relays that failed in transport (not nacks)
	handoffRounds      int64 // completed handoffs (join, leave)
	handoffStreams     int64 // streams moved across all handoffs
	segmentsPushed     int64 // handoff segments shipped to peers
	segmentsImported   int64 // handoff segments accepted from peers
	standbyPushed      int64 // replication copies shipped
	standbyImported    int64 // replication copies accepted
	replicationErrors  int64

	// Failure detection and self-healing (zero with membership off).
	membershipEvents   map[string]int64 // detector transitions by kind
	promotedStreams    int64            // standby streams promoted to authoritative
	replayedBatches    int64            // buffered replicated batches applied at promotion
	replicatesShipped  int64            // applied batches shipped to standbys pre-ack
	replicatesBuffered int64            // replicated batches buffered as a standby

	checkpoints             int64
	checkpointErrors        int64
	lastCheckpointSegments  int64 // dirty segments rewritten by the last save
	lastCheckpointBytes     int64 // segment bytes written by the last save
	lastCheckpointManifestB int64
	lastCheckpointStreams   int64 // streams the last manifest covers
	lastCheckpointSecs      float64
	restoredStreamsAtBoot   int64
}

func newMetrics() *metrics {
	return &metrics{
		requests:         make(map[routeKey]int64),
		latency:          make(map[string]*histogram),
		membershipEvents: make(map[string]int64),
	}
}

func (m *metrics) addMembershipEvent(kind string) {
	m.mu.Lock()
	m.membershipEvents[kind]++
	m.mu.Unlock()
}

func (m *metrics) addPromotion(streams, replayed int) {
	m.mu.Lock()
	m.promotedStreams += int64(streams)
	m.replayedBatches += int64(replayed)
	m.mu.Unlock()
}

func (m *metrics) addReplicateShipped() {
	m.mu.Lock()
	m.replicatesShipped++
	m.mu.Unlock()
}

func (m *metrics) addReplicateBuffered() {
	m.mu.Lock()
	m.replicatesBuffered++
	m.mu.Unlock()
}

func (m *metrics) observeRequest(route string, code int, seconds float64) {
	m.mu.Lock()
	m.requests[routeKey{route, code}]++
	h := m.latency[route]
	if h == nil {
		h = &histogram{}
		m.latency[route] = h
	}
	h.observe(seconds)
	m.mu.Unlock()
}

func (m *metrics) addIngested(points, mergedRequests int) {
	m.mu.Lock()
	m.ingestedPoints += int64(points)
	m.appliedBatches++
	if mergedRequests > 1 {
		m.coalescedNonUnit++
	}
	m.mu.Unlock()
}

func (m *metrics) addRejected(draining bool) {
	m.mu.Lock()
	if draining {
		m.rejectedDraining++
	} else {
		m.rejectedFull++
	}
	m.mu.Unlock()
}

func (m *metrics) setRing(version uint64, members int) {
	m.mu.Lock()
	m.clustered = true
	m.ringVersion = version
	m.ringMembers = int64(members)
	m.mu.Unlock()
}

func (m *metrics) addForwarded(estimate bool) {
	m.mu.Lock()
	if estimate {
		m.forwardedEstimates++
	} else {
		m.forwardedObserves++
	}
	m.mu.Unlock()
}

func (m *metrics) addForwardError() {
	m.mu.Lock()
	m.forwardErrors++
	m.mu.Unlock()
}

func (m *metrics) addHandoff(streams int) {
	m.mu.Lock()
	m.handoffRounds++
	m.handoffStreams += int64(streams)
	m.mu.Unlock()
}

func (m *metrics) addSegmentPushed(standby bool) {
	m.mu.Lock()
	if standby {
		m.standbyPushed++
	} else {
		m.segmentsPushed++
	}
	m.mu.Unlock()
}

func (m *metrics) addSegmentImported(standby bool) {
	m.mu.Lock()
	if standby {
		m.standbyImported++
	} else {
		m.segmentsImported++
	}
	m.mu.Unlock()
}

func (m *metrics) addReplicationError() {
	m.mu.Lock()
	m.replicationErrors++
	m.mu.Unlock()
}

func (m *metrics) recordCheckpoint(fs privreg.FlushStats, seconds float64, err error) {
	m.mu.Lock()
	if err != nil {
		m.checkpointErrors++
	} else {
		m.checkpoints++
		m.lastCheckpointSegments = int64(fs.Segments)
		m.lastCheckpointBytes = int64(fs.SegmentBytes)
		m.lastCheckpointManifestB = int64(fs.ManifestBytes)
		m.lastCheckpointStreams = int64(fs.Streams)
		m.lastCheckpointSecs = seconds
	}
	m.mu.Unlock()
}

func (m *metrics) setRestoredStreams(n int) {
	m.mu.Lock()
	m.restoredStreamsAtBoot = int64(n)
	m.mu.Unlock()
}

// metricsSnapshot is the JSON form of the metrics registry plus the pool-level
// gauges sampled at scrape time.
type metricsSnapshot struct {
	Requests map[string]int64 `json:"requests"` // "route/code" → count
	Ingest   struct {
		Points           int64 `json:"points"`
		AppliedBatches   int64 `json:"applied_batches"`
		CoalescedBatches int64 `json:"coalesced_batches"`
		RejectedFull     int64 `json:"rejected_queue_full"`
		RejectedDraining int64 `json:"rejected_draining"`
	} `json:"ingest"`
	Checkpoint struct {
		Count           int64   `json:"count"`
		Errors          int64   `json:"errors"`
		LastSegments    int64   `json:"last_segments"`
		LastBytes       int64   `json:"last_bytes"`
		LastManifest    int64   `json:"last_manifest_bytes"`
		LastStreams     int64   `json:"last_streams"`
		LastSeconds     float64 `json:"last_seconds"`
		RestoredStreams int64   `json:"restored_streams_at_boot"`
	} `json:"checkpoint"`
	Cluster *clusterMetricsSnapshot `json:"cluster,omitempty"`
	Pool    struct {
		Mechanism    string `json:"mechanism"`
		Streams      int    `json:"streams"`
		Observations int64  `json:"observations"`
		Resident     int    `json:"resident"`
		Spilled      int    `json:"spilled"`
		Dirty        int    `json:"dirty"`
		StoreCap     int    `json:"store_cap"`
		Evictions    int64  `json:"evictions"`
		FaultIns     int64  `json:"fault_ins"`
		// RetainedBytes is the in-memory state held across resident streams
		// (sufficient statistics or history buffers, for mechanisms that
		// track it).
		RetainedBytes int64 `json:"retained_bytes"`
	} `json:"pool"`
}

// clusterMetricsSnapshot is the cluster section of the JSON scrape, present
// only on clustered servers.
type clusterMetricsSnapshot struct {
	RingVersion        uint64 `json:"ring_version"`
	RingMembers        int64  `json:"ring_members"`
	ForwardedObserves  int64  `json:"forwarded_observes"`
	ForwardedEstimates int64  `json:"forwarded_estimates"`
	ForwardErrors      int64  `json:"forward_errors"`
	HandoffRounds      int64  `json:"handoff_rounds"`
	HandoffStreams     int64  `json:"handoff_streams"`
	SegmentsPushed     int64  `json:"segments_pushed"`
	SegmentsImported   int64  `json:"segments_imported"`
	StandbyPushed      int64  `json:"standby_pushed"`
	StandbyImported    int64  `json:"standby_imported"`
	ReplicationErrors  int64  `json:"replication_errors"`

	MembershipEvents   map[string]int64 `json:"membership_events,omitempty"`
	PromotedStreams    int64            `json:"promoted_streams"`
	ReplayedBatches    int64            `json:"replayed_batches"`
	ReplicatesShipped  int64            `json:"replicates_shipped"`
	ReplicatesBuffered int64            `json:"replicates_buffered"`
}

func (m *metrics) snapshot(st privreg.PoolStats) metricsSnapshot {
	var s metricsSnapshot
	s.Requests = make(map[string]int64)
	m.mu.Lock()
	for k, v := range m.requests {
		s.Requests[fmt.Sprintf("%s/%d", k.route, k.code)] = v
	}
	s.Ingest.Points = m.ingestedPoints
	s.Ingest.AppliedBatches = m.appliedBatches
	s.Ingest.CoalescedBatches = m.coalescedNonUnit
	s.Ingest.RejectedFull = m.rejectedFull
	s.Ingest.RejectedDraining = m.rejectedDraining
	s.Checkpoint.Count = m.checkpoints
	s.Checkpoint.Errors = m.checkpointErrors
	s.Checkpoint.LastSegments = m.lastCheckpointSegments
	s.Checkpoint.LastBytes = m.lastCheckpointBytes
	s.Checkpoint.LastManifest = m.lastCheckpointManifestB
	s.Checkpoint.LastStreams = m.lastCheckpointStreams
	s.Checkpoint.LastSeconds = m.lastCheckpointSecs
	s.Checkpoint.RestoredStreams = m.restoredStreamsAtBoot
	if m.clustered {
		s.Cluster = &clusterMetricsSnapshot{
			RingVersion:        m.ringVersion,
			RingMembers:        m.ringMembers,
			ForwardedObserves:  m.forwardedObserves,
			ForwardedEstimates: m.forwardedEstimates,
			ForwardErrors:      m.forwardErrors,
			HandoffRounds:      m.handoffRounds,
			HandoffStreams:     m.handoffStreams,
			SegmentsPushed:     m.segmentsPushed,
			SegmentsImported:   m.segmentsImported,
			StandbyPushed:      m.standbyPushed,
			StandbyImported:    m.standbyImported,
			ReplicationErrors:  m.replicationErrors,
			PromotedStreams:    m.promotedStreams,
			ReplayedBatches:    m.replayedBatches,
			ReplicatesShipped:  m.replicatesShipped,
			ReplicatesBuffered: m.replicatesBuffered,
		}
		if len(m.membershipEvents) > 0 {
			s.Cluster.MembershipEvents = make(map[string]int64, len(m.membershipEvents))
			for k, v := range m.membershipEvents {
				s.Cluster.MembershipEvents[k] = v
			}
		}
	}
	m.mu.Unlock()
	s.Pool.Mechanism = st.Mechanism
	s.Pool.Streams = st.Streams
	s.Pool.Observations = st.Observations
	s.Pool.Resident = st.Resident
	s.Pool.Spilled = st.Spilled
	s.Pool.Dirty = st.DirtyStreams
	s.Pool.StoreCap = st.StoreCap
	s.Pool.Evictions = st.Evictions
	s.Pool.FaultIns = st.FaultIns
	s.Pool.RetainedBytes = st.RetainedBytes
	return s
}

// writePrometheus renders the registry in the Prometheus text exposition
// format. Series are emitted in sorted order so scrapes are diffable.
func (m *metrics) writePrometheus(w io.Writer, st privreg.PoolStats) {
	m.mu.Lock()
	reqKeys := make([]routeKey, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].route != reqKeys[j].route {
			return reqKeys[i].route < reqKeys[j].route
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	latRoutes := make([]string, 0, len(m.latency))
	for r := range m.latency {
		latRoutes = append(latRoutes, r)
	}
	sort.Strings(latRoutes)

	fmt.Fprintf(w, "# HELP privreg_requests_total HTTP requests by route and status code.\n")
	fmt.Fprintf(w, "# TYPE privreg_requests_total counter\n")
	for _, k := range reqKeys {
		fmt.Fprintf(w, "privreg_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, m.requests[k])
	}
	fmt.Fprintf(w, "# HELP privreg_request_seconds Request latency by route.\n")
	fmt.Fprintf(w, "# TYPE privreg_request_seconds histogram\n")
	for _, r := range latRoutes {
		h := m.latency[r]
		cum := int64(0)
		for i, ub := range latencyBuckets[:] {
			cum += h.counts[i]
			fmt.Fprintf(w, "privreg_request_seconds_bucket{route=%q,le=\"%g\"} %d\n", r, ub, cum)
		}
		cum += h.counts[len(latencyBuckets)]
		fmt.Fprintf(w, "privreg_request_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", r, cum)
		fmt.Fprintf(w, "privreg_request_seconds_sum{route=%q} %g\n", r, h.sum)
		fmt.Fprintf(w, "privreg_request_seconds_count{route=%q} %d\n", r, h.total)
	}
	fmt.Fprintf(w, "# HELP privreg_ingested_points_total Points applied to the pool by the ingester.\n")
	fmt.Fprintf(w, "# TYPE privreg_ingested_points_total counter\n")
	fmt.Fprintf(w, "privreg_ingested_points_total %d\n", m.ingestedPoints)
	fmt.Fprintf(w, "# HELP privreg_applied_batches_total Pool ingest calls issued by the ingester.\n")
	fmt.Fprintf(w, "# TYPE privreg_applied_batches_total counter\n")
	fmt.Fprintf(w, "privreg_applied_batches_total %d\n", m.appliedBatches)
	fmt.Fprintf(w, "# HELP privreg_coalesced_batches_total Applied batches that merged more than one queued request.\n")
	fmt.Fprintf(w, "# TYPE privreg_coalesced_batches_total counter\n")
	fmt.Fprintf(w, "privreg_coalesced_batches_total %d\n", m.coalescedNonUnit)
	fmt.Fprintf(w, "# HELP privreg_ingest_rejected_total Ingestion requests rejected, by reason.\n")
	fmt.Fprintf(w, "# TYPE privreg_ingest_rejected_total counter\n")
	fmt.Fprintf(w, "privreg_ingest_rejected_total{reason=\"queue_full\"} %d\n", m.rejectedFull)
	fmt.Fprintf(w, "privreg_ingest_rejected_total{reason=\"draining\"} %d\n", m.rejectedDraining)
	fmt.Fprintf(w, "# HELP privreg_checkpoints_total Checkpoints written to disk.\n")
	fmt.Fprintf(w, "# TYPE privreg_checkpoints_total counter\n")
	fmt.Fprintf(w, "privreg_checkpoints_total %d\n", m.checkpoints)
	fmt.Fprintf(w, "# HELP privreg_checkpoint_errors_total Checkpoint attempts that failed.\n")
	fmt.Fprintf(w, "# TYPE privreg_checkpoint_errors_total counter\n")
	fmt.Fprintf(w, "privreg_checkpoint_errors_total %d\n", m.checkpointErrors)
	fmt.Fprintf(w, "# HELP privreg_checkpoint_last_segments Dirty segments rewritten by the most recent checkpoint.\n")
	fmt.Fprintf(w, "# TYPE privreg_checkpoint_last_segments gauge\n")
	fmt.Fprintf(w, "privreg_checkpoint_last_segments %d\n", m.lastCheckpointSegments)
	fmt.Fprintf(w, "# HELP privreg_checkpoint_last_bytes Segment bytes written by the most recent checkpoint.\n")
	fmt.Fprintf(w, "# TYPE privreg_checkpoint_last_bytes gauge\n")
	fmt.Fprintf(w, "privreg_checkpoint_last_bytes %d\n", m.lastCheckpointBytes)
	fmt.Fprintf(w, "# HELP privreg_checkpoint_last_streams Streams covered by the most recent manifest.\n")
	fmt.Fprintf(w, "# TYPE privreg_checkpoint_last_streams gauge\n")
	fmt.Fprintf(w, "privreg_checkpoint_last_streams %d\n", m.lastCheckpointStreams)
	fmt.Fprintf(w, "# HELP privreg_checkpoint_last_seconds Wall time of the most recent checkpoint.\n")
	fmt.Fprintf(w, "# TYPE privreg_checkpoint_last_seconds gauge\n")
	fmt.Fprintf(w, "privreg_checkpoint_last_seconds %g\n", m.lastCheckpointSecs)
	fmt.Fprintf(w, "# HELP privreg_restored_streams Streams restored from the boot checkpoint.\n")
	fmt.Fprintf(w, "# TYPE privreg_restored_streams gauge\n")
	fmt.Fprintf(w, "privreg_restored_streams %d\n", m.restoredStreamsAtBoot)
	if m.clustered {
		fmt.Fprintf(w, "# HELP privreg_cluster_ring_version Version of the ring this node routes by.\n")
		fmt.Fprintf(w, "# TYPE privreg_cluster_ring_version gauge\n")
		fmt.Fprintf(w, "privreg_cluster_ring_version %d\n", m.ringVersion)
		fmt.Fprintf(w, "# HELP privreg_cluster_ring_members Members in the current ring.\n")
		fmt.Fprintf(w, "# TYPE privreg_cluster_ring_members gauge\n")
		fmt.Fprintf(w, "privreg_cluster_ring_members %d\n", m.ringMembers)
		fmt.Fprintf(w, "# HELP privreg_cluster_forwarded_total Misrouted requests relayed to their owner, by kind.\n")
		fmt.Fprintf(w, "# TYPE privreg_cluster_forwarded_total counter\n")
		fmt.Fprintf(w, "privreg_cluster_forwarded_total{kind=\"observe\"} %d\n", m.forwardedObserves)
		fmt.Fprintf(w, "privreg_cluster_forwarded_total{kind=\"estimate\"} %d\n", m.forwardedEstimates)
		fmt.Fprintf(w, "# HELP privreg_cluster_forward_errors_total Relays that failed in transport.\n")
		fmt.Fprintf(w, "# TYPE privreg_cluster_forward_errors_total counter\n")
		fmt.Fprintf(w, "privreg_cluster_forward_errors_total %d\n", m.forwardErrors)
		fmt.Fprintf(w, "# HELP privreg_cluster_handoff_streams_total Streams moved by completed handoffs.\n")
		fmt.Fprintf(w, "# TYPE privreg_cluster_handoff_streams_total counter\n")
		fmt.Fprintf(w, "privreg_cluster_handoff_streams_total %d\n", m.handoffStreams)
		fmt.Fprintf(w, "# HELP privreg_cluster_segments_total Segments exchanged with peers, by direction and kind.\n")
		fmt.Fprintf(w, "# TYPE privreg_cluster_segments_total counter\n")
		fmt.Fprintf(w, "privreg_cluster_segments_total{dir=\"pushed\",kind=\"handoff\"} %d\n", m.segmentsPushed)
		fmt.Fprintf(w, "privreg_cluster_segments_total{dir=\"imported\",kind=\"handoff\"} %d\n", m.segmentsImported)
		fmt.Fprintf(w, "privreg_cluster_segments_total{dir=\"pushed\",kind=\"standby\"} %d\n", m.standbyPushed)
		fmt.Fprintf(w, "privreg_cluster_segments_total{dir=\"imported\",kind=\"standby\"} %d\n", m.standbyImported)
		fmt.Fprintf(w, "# HELP privreg_cluster_replication_errors_total Warm-standby pushes that failed (retried next tick).\n")
		fmt.Fprintf(w, "# TYPE privreg_cluster_replication_errors_total counter\n")
		fmt.Fprintf(w, "privreg_cluster_replication_errors_total %d\n", m.replicationErrors)
		if len(m.membershipEvents) > 0 {
			kinds := make([]string, 0, len(m.membershipEvents))
			for k := range m.membershipEvents {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			fmt.Fprintf(w, "# HELP privreg_cluster_membership_events_total Failure-detector transitions by kind.\n")
			fmt.Fprintf(w, "# TYPE privreg_cluster_membership_events_total counter\n")
			for _, k := range kinds {
				fmt.Fprintf(w, "privreg_cluster_membership_events_total{kind=%q} %d\n", k, m.membershipEvents[k])
			}
		}
		fmt.Fprintf(w, "# HELP privreg_cluster_promoted_streams_total Warm-standby streams promoted to authoritative after a death.\n")
		fmt.Fprintf(w, "# TYPE privreg_cluster_promoted_streams_total counter\n")
		fmt.Fprintf(w, "privreg_cluster_promoted_streams_total %d\n", m.promotedStreams)
		fmt.Fprintf(w, "# HELP privreg_cluster_replayed_batches_total Buffered replicated batches applied during promotion.\n")
		fmt.Fprintf(w, "# TYPE privreg_cluster_replayed_batches_total counter\n")
		fmt.Fprintf(w, "privreg_cluster_replayed_batches_total %d\n", m.replayedBatches)
		fmt.Fprintf(w, "# HELP privreg_cluster_replicates_total Applied batches shipped to (or buffered from) warm standbys.\n")
		fmt.Fprintf(w, "# TYPE privreg_cluster_replicates_total counter\n")
		fmt.Fprintf(w, "privreg_cluster_replicates_total{dir=\"shipped\"} %d\n", m.replicatesShipped)
		fmt.Fprintf(w, "privreg_cluster_replicates_total{dir=\"buffered\"} %d\n", m.replicatesBuffered)
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP privreg_streams Live streams (resident + spilled), by mechanism.\n")
	fmt.Fprintf(w, "# TYPE privreg_streams gauge\n")
	fmt.Fprintf(w, "privreg_streams{mechanism=%q} %d\n", st.Mechanism, st.Streams)
	fmt.Fprintf(w, "# HELP privreg_observations_total Observations across all streams.\n")
	fmt.Fprintf(w, "# TYPE privreg_observations_total gauge\n")
	fmt.Fprintf(w, "privreg_observations_total{mechanism=%q} %d\n", st.Mechanism, st.Observations)
	fmt.Fprintf(w, "# HELP privreg_resident_streams Streams currently materialized in memory.\n")
	fmt.Fprintf(w, "# TYPE privreg_resident_streams gauge\n")
	fmt.Fprintf(w, "privreg_resident_streams %d\n", st.Resident)
	fmt.Fprintf(w, "# HELP privreg_spilled_streams Streams currently held only as on-disk segments.\n")
	fmt.Fprintf(w, "# TYPE privreg_spilled_streams gauge\n")
	fmt.Fprintf(w, "privreg_spilled_streams %d\n", st.Spilled)
	fmt.Fprintf(w, "# HELP privreg_dirty_streams Streams modified since their last segment write.\n")
	fmt.Fprintf(w, "# TYPE privreg_dirty_streams gauge\n")
	fmt.Fprintf(w, "privreg_dirty_streams %d\n", st.DirtyStreams)
	fmt.Fprintf(w, "# HELP privreg_retained_state_bytes In-memory state retained across resident streams (sufficient statistics, history buffers or continual-sum trees).\n")
	fmt.Fprintf(w, "# TYPE privreg_retained_state_bytes gauge\n")
	fmt.Fprintf(w, "privreg_retained_state_bytes %d\n", st.RetainedBytes)
	fmt.Fprintf(w, "# HELP privreg_store_cap Resident-estimator bound (0 = unbounded).\n")
	fmt.Fprintf(w, "# TYPE privreg_store_cap gauge\n")
	fmt.Fprintf(w, "privreg_store_cap %d\n", st.StoreCap)
	fmt.Fprintf(w, "# HELP privreg_evictions_total Resident-to-disk spills since boot.\n")
	fmt.Fprintf(w, "# TYPE privreg_evictions_total counter\n")
	fmt.Fprintf(w, "privreg_evictions_total %d\n", st.Evictions)
	fmt.Fprintf(w, "# HELP privreg_faultins_total Disk-to-resident restores since boot.\n")
	fmt.Fprintf(w, "# TYPE privreg_faultins_total counter\n")
	fmt.Fprintf(w, "privreg_faultins_total %d\n", st.FaultIns)
}
