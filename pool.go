package privreg

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"privreg/internal/randx"
	"privreg/internal/store"
)

// Pool manages one estimator per stream ID — the unit a server fronting many
// users holds. All methods are safe for concurrent use by any number of
// goroutines; distinct streams proceed in parallel (locking is per stream,
// sharded for cheap lookup), while operations on the same stream serialize.
//
// Streams are created lazily on first ObserveMultiFlat. Every stream's
// estimator is built from the Pool's mechanism and option template, with one
// difference: the random seed is derived deterministically from the template
// seed and the stream ID, so each stream draws independent noise yet the whole
// pool is reproducible and checkpoint/restore-stable.
//
// Streams live in one stream store. Without WithSpillDir it keeps every
// stream resident in memory for the life of the process and touches no file.
// With WithSpillDir the same store gains a disk layer: at most WithStoreCap
// estimators are resident, colder streams are serialized to per-stream
// segment files and transparently faulted back in on access (bit-identical —
// spilling is invisible in the output sequence), and Flush writes
// incremental checkpoints whose cost scales with the number of streams
// touched since the last flush, not with the total stream count. See
// docs/SERVING.md.
type Pool struct {
	mech     *mechanism
	template settings
	stats    PoolStats // immutable identity fields only (Mechanism, Privacy, …)

	store *store.Store

	// standbyMu guards standby: stream IDs held as warm replicas for another
	// node rather than authoritative local state. The set only gates
	// bookkeeping (replication skips standbys, promotion flips them) — the
	// underlying estimator state is identical either way, which is what
	// makes promotion a metadata flip instead of a data copy.
	standbyMu sync.Mutex
	standby   map[string]struct{}
}

// ErrUnknownStream is returned (wrapped with the stream ID) by Pool methods
// that require an existing stream, such as Estimate on an ID that never
// observed anything. Match it with errors.Is.
var ErrUnknownStream = errors.New("privreg: unknown stream")

// ErrNotPersistent is returned by Pool.Flush when the pool was built without
// WithSpillDir: there is no disk layer to checkpoint incrementally (use
// ExportSegment to copy streams out instead).
var ErrNotPersistent = errors.New("privreg: pool has no spill directory (build it with WithSpillDir to enable incremental checkpoints)")

// PoolStats is a point-in-time snapshot of a Pool.
type PoolStats struct {
	// Mechanism is the canonical registry name of the pooled mechanism.
	Mechanism string
	// Privacy is the per-stream (ε, δ) budget (zero for nonprivate pools).
	Privacy Privacy
	// Horizon is the per-stream horizon from the template (0 when running with
	// an unknown horizon).
	Horizon int
	// Streams is the number of live streams, resident or spilled.
	Streams int
	// Observations is the total number of points observed across all streams.
	Observations int64
	// Shards is the number of lock shards stream IDs hash across: 64, or
	// StoreCap when a smaller cap has to split exactly across shards.
	Shards int

	// StoreCap is the resident-estimator bound (0 = unbounded).
	StoreCap int
	// Resident is the number of streams currently materialized in memory
	// (equal to Streams for pools without WithSpillDir, apart from streams
	// whose first batch is still being applied, which count as neither
	// resident nor spilled).
	Resident int
	// Spilled is the number of streams currently held only as on-disk
	// segments (always 0 for pools without WithSpillDir).
	Spilled int
	// DirtyStreams is the number of streams modified since their last
	// segment write — the number of segments the next Flush will rewrite.
	DirtyStreams int
	// Evictions counts resident→disk spills since the pool was created.
	Evictions int64
	// FaultIns counts disk→resident restores since the pool was created.
	FaultIns int64
	// StandbyStreams is the number of streams held as warm replicas for
	// other cluster nodes (included in Streams; 0 outside a cluster).
	StandbyStreams int
	// RetainedBytes is the total in-memory state retained across resident
	// streams (sufficient statistics, history buffers and solver
	// workspaces; spilled streams contribute 0). The regression mechanisms'
	// tree noise is regenerated from its key at each read, so a regression
	// stream's share does not grow with the horizon.
	RetainedBytes int64
}

// FlushStats describes one incremental checkpoint written by Pool.Flush.
type FlushStats struct {
	// Segments is the number of per-stream segment files rewritten — the
	// streams that changed since the last flush, not the total stream count.
	Segments int
	// SegmentBytes is the total encoded size of the rewritten segments.
	SegmentBytes int
	// ManifestBytes is the size of the manifest (the recovery root).
	ManifestBytes int
	// Streams is the number of streams the manifest covers.
	Streams int
}

// NewPool returns a Pool that builds one estimator per stream from the given
// mechanism name (see Mechanisms) and option template. The template is
// validated eagerly by constructing and discarding a probe estimator, so a bad
// budget or a missing constraint fails here rather than on the first request.
//
// With WithSpillDir the pool opens the directory's manifest (if any) and
// registers every checkpointed stream immediately — restore-on-boot is
// O(manifest); stream state faults in lazily on first access.
func NewPool(mechanism string, opts ...Option) (*Pool, error) {
	m, err := lookupMechanism(mechanism)
	if err != nil {
		return nil, err
	}
	s, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if s.storeCap < 0 {
		return nil, fmt.Errorf("privreg: WithStoreCap requires a non-negative cap, got %d", s.storeCap)
	}
	if s.storeCap > 0 && s.spillDir == "" {
		return nil, errors.New("privreg: WithStoreCap requires WithSpillDir (evicting without a spill directory would discard budgeted private state)")
	}
	if _, err := buildEstimator(m, s); err != nil {
		return nil, err
	}
	p := &Pool{
		mech:     m,
		template: *s,
		stats: PoolStats{
			Mechanism: m.info.Name,
			Horizon:   s.cfg.Horizon,
			StoreCap:  s.storeCap,
		},
	}
	if m.info.Private {
		p.stats.Privacy = s.cfg.Privacy
	}
	p.store, err = store.Open(s.spillDir, m.info.Name, s.storeCap,
		func(id string) (store.Stream, error) { return p.buildStream(id) })
	if err != nil {
		return nil, err
	}
	return p, nil
}

// streamSeed derives a per-stream seed from the template seed and the stream
// ID with FNV-1a followed by the SplitMix64 finalizer (randx.Mix64, the same
// primitive Source.Split uses), so IDs that differ in one byte get
// well-separated seeds.
func (p *Pool) streamSeed(id string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	z := randx.Mix64(h.Sum64() ^ uint64(p.template.cfg.Seed))
	return int64(z & 0x7fffffffffffffff)
}

// buildStream constructs a fresh estimator for the given stream ID from the
// pool template. It is also the stream store's factory for fault-ins and
// imports: the estimator it returns absorbs the stream's segment blob via
// UnmarshalBinary, after which it continues bit-identically (the
// checkpoint/restore contract).
func (p *Pool) buildStream(id string) (Estimator, error) {
	s := p.template
	s.cfg.Seed = p.streamSeed(id)
	return buildEstimator(p.mech, &s)
}

// wrapUnknown translates the store's not-found sentinel into the public
// ErrUnknownStream, stamped with the stream ID.
func wrapUnknown(err error, id string) error {
	if errors.Is(err, store.ErrNotFound) {
		return fmt.Errorf("%w %q", ErrUnknownStream, id)
	}
	return err
}

// Outcomes returns the number of outcome columns k each stream of this pool
// serves: the WithOutcomes value for a multi-outcome pool, 1 otherwise.
func (p *Pool) Outcomes() int { return p.template.cfg.outcomes() }

// ObserveMultiFlat feeds a batch of rows packed flat to the given stream,
// creating the stream on first use (and faulting it in from disk if it was
// spilled): row-major covariates (rows×dim values, dim the constraint's
// dimension) and row-major responses (rows×k values, k = Outcomes()). The
// batch is validated whole before the stream is touched and applied
// atomically with respect to other operations on the same stream. The pool
// does not retain xs or ys after the call returns, so transport decoders can
// hand their receive buffers over directly.
func (p *Pool) ObserveMultiFlat(id string, dim int, xs []float64, ys []float64) error {
	if err := checkRows(p.template.cfg.Constraint.Dim(), p.Outcomes(), dim, xs, ys); err != nil {
		return err
	}
	return p.store.Update(id, true, func(st store.Stream) error {
		return st.(*estimatorAdapter).inner.ObserveRows(xs, ys)
	})
}

// ObserveFlat is ObserveMultiFlat under its single-outcome name: on a
// single-outcome pool point i is (xs[i*dim:(i+1)*dim], ys[i]).
func (p *Pool) ObserveFlat(id string, dim int, xs []float64, ys []float64) error {
	return p.ObserveMultiFlat(id, dim, xs, ys)
}

// Estimate returns the current private estimate for the given stream; it is
// EstimateOutcome(id, 0).
func (p *Pool) Estimate(id string) ([]float64, error) {
	return p.EstimateOutcome(id, 0)
}

// EstimateOutcome returns outcome i's current private estimate for the given
// stream. Unknown streams are an error (an estimate for a stream that never
// observed anything is almost always a caller bug; create streams by
// observing).
//
// On a spill-backed pool, an estimate normally does not mark the stream
// dirty: the state it touches (the estimate memo and read workspaces) is a
// deterministic function of the last persisted state, so the on-disk
// segment stays a valid snapshot and estimate-only traffic costs no
// checkpoint writes. With WithWarmStart the optimizer's
// start point feeds future outputs, so warm-started pools treat an estimate
// as a mutation. The start point feeds outputs only on solve domains other
// than an L2 ball, which the regression mechanisms read exactly; there an
// estimate still updates the recorded start point that checkpoints carry.
func (p *Pool) EstimateOutcome(id string, i int) ([]float64, error) {
	var theta []float64
	read := func(st store.Stream) error {
		var err error
		theta, err = st.(*estimatorAdapter).EstimateOutcome(i)
		return err
	}
	var err error
	if p.template.cfg.WarmStart {
		err = p.store.Update(id, false, read)
	} else {
		err = p.store.Read(id, read)
	}
	if err != nil {
		return nil, wrapUnknown(err, id)
	}
	return theta, nil
}

// LenOK returns the number of observations of the given stream and whether
// the stream exists, distinguishing an empty stream (0, true) from an unknown
// one (0, false). It never faults a spilled stream in: lengths are tracked
// alongside the residency state.
func (p *Pool) LenOK(id string) (int, bool) {
	return p.store.Length(id)
}

// StateBytes returns the stream's retained in-memory state in bytes, the
// per-stream share of PoolStats.RetainedBytes (0 while the stream is spilled
// to disk), and whether the stream exists. It never faults a stream in.
func (p *Pool) StateBytes(id string) (int64, bool) {
	return p.store.StateBytes(id)
}

// Has reports whether the stream exists (has observed at least one batch, or
// was restored from a checkpoint, and has not been dropped). Spilled streams
// exist.
func (p *Pool) Has(id string) bool {
	return p.store.Has(id)
}

// Drop removes a stream and reports whether it existed. Its budgeted private
// state is discarded (the on-disk segment of a spilled stream is deleted at
// the next Flush); a subsequent observe under the same ID starts a fresh
// stream (with the same derived seed).
func (p *Pool) Drop(id string) bool {
	p.standbyMu.Lock()
	delete(p.standby, id)
	p.standbyMu.Unlock()
	return p.store.Delete(id)
}

// MarkStandby records that a stream is held as a warm replica for another
// node: its state mirrors the owner's but this pool is not authoritative for
// it. Standby streams are excluded from outbound replication and counted
// separately in Stats.
func (p *Pool) MarkStandby(id string) {
	p.standbyMu.Lock()
	if p.standby == nil {
		p.standby = make(map[string]struct{})
	}
	p.standby[id] = struct{}{}
	p.standbyMu.Unlock()
}

// Promote flips a standby stream to authoritative ownership — the metadata
// half of standby promotion; the data half is the replication-queue replay
// the cluster layer runs first. Reports whether the stream was a standby.
func (p *Pool) Promote(id string) bool {
	p.standbyMu.Lock()
	_, ok := p.standby[id]
	delete(p.standby, id)
	p.standbyMu.Unlock()
	return ok
}

// IsStandby reports whether the stream is held as a warm replica.
func (p *Pool) IsStandby(id string) bool {
	p.standbyMu.Lock()
	_, ok := p.standby[id]
	p.standbyMu.Unlock()
	return ok
}

// StandbyStreams returns the IDs of all standby streams, sorted.
func (p *Pool) StandbyStreams() []string {
	p.standbyMu.Lock()
	out := make([]string, 0, len(p.standby))
	for id := range p.standby {
		out = append(out, id)
	}
	p.standbyMu.Unlock()
	sort.Strings(out)
	return out
}

// Streams returns the IDs of all live streams (resident and spilled), sorted.
func (p *Pool) Streams() []string {
	return p.store.Keys()
}

// Stats returns a snapshot of the pool: stream, observation, and residency
// counts plus the budget parameters every stream runs under. Stats never
// faults spilled streams in.
func (p *Pool) Stats() PoolStats {
	st := p.stats
	ss := p.store.Stats()
	st.Streams = ss.Streams
	st.Observations = ss.Observations
	st.Resident = ss.Resident
	st.Spilled = ss.Spilled
	st.Shards = ss.Shards
	st.DirtyStreams = ss.Dirty
	st.Evictions = ss.Evictions
	st.FaultIns = ss.Faults
	st.RetainedBytes = ss.StateBytes
	p.standbyMu.Lock()
	st.StandbyStreams = len(p.standby)
	p.standbyMu.Unlock()
	return st
}

// Flush writes an incremental checkpoint of a spill-backed pool: every
// stream modified since the last flush gets a fresh fsynced segment file, and
// the manifest — the recovery root a restarted pool boots from — is atomically
// replaced. Cost is O(streams touched since the last flush), not O(total
// streams). Pools without WithSpillDir return ErrNotPersistent.
func (p *Pool) Flush() (FlushStats, error) {
	fs, err := p.store.Flush()
	if errors.Is(err, store.ErrNotPersistent) {
		return FlushStats{}, ErrNotPersistent
	}
	return FlushStats(fs), err
}

// ExportSegment returns one stream's state as a self-contained segment blob
// (the stream store's segment-file format: mechanism identity, stream ID,
// CRC) plus the stream's observation count — the unit the cluster layer
// ships between nodes during handoff and standby replication. On a
// spill-backed pool a cold stream's bytes come straight from its segment
// file without faulting the estimator in.
func (p *Pool) ExportSegment(id string) (data []byte, length int64, err error) {
	data, length, err = p.store.Export(id)
	if errors.Is(err, store.ErrNotFound) {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	return data, length, err
}

// ImportSegment installs a stream from a segment blob produced by
// ExportSegment on a pool of the same mechanism, replacing any local stream
// with the same ID. The blob's CRC and mechanism identity are verified
// before any local state changes; length is the stream's observation count
// at export (the segment format does not embed it). The imported stream is
// bit-identical to the source — estimator checkpoint codecs round-trip
// exactly — which is what makes cluster handoff invisible in the output
// sequence.
func (p *Pool) ImportSegment(data []byte, length int64) (id string, err error) {
	return p.store.Import(data, length)
}
