// Package store implements the Pool's storage engine: the mapping from
// stream IDs to live estimator state. It exists so residency policy is
// pluggable behind one interface — StreamStore — with two backends:
//
//   - Resident: every stream stays in memory for the life of the process
//     (the historical Pool behavior). Sharded locking, zero I/O.
//   - Spill: a bounded-memory store for the many-streams regime. At most a
//     configurable number of estimators are resident; colder streams are
//     serialized through their MarshalBinary codec to per-stream segment
//     files on disk and transparently faulted back in on next access.
//     Because checkpoint/restore is bit-identical (the estimator contract),
//     spill and fault-in are invisible in the output sequence. The Spill
//     store also provides incremental checkpointing: per-stream dirty
//     tracking, segment rewrites only for streams that changed, and an
//     fsynced, atomically renamed manifest as the recovery root, so
//     restore-on-boot is O(manifest) with streams faulting in lazily.
//
// The package is deliberately estimator-agnostic: it sees streams only
// through the three-method Stream interface, so it can be tested with tiny
// fakes and reused by any state machine with a binary codec.
package store

import "errors"

// Stream is the minimal surface the store needs from a stream's state: a
// length (for stats without deserialization) and the binary checkpoint codec
// used to spill state to disk and fault it back in. privreg.Estimator
// satisfies it.
type Stream interface {
	Len() int
	MarshalBinary() ([]byte, error)
	UnmarshalBinary(data []byte) error
}

// Factory builds a fresh, empty Stream for the given ID — the hook the Pool
// supplies so the store can create streams on first use and rebuild them
// (before UnmarshalBinary) when faulting spilled state back in. It must be
// safe for concurrent use and deterministic per ID.
type Factory func(id string) (Stream, error)

// StateSizer is an optional Stream capability: streams that can report the
// bytes of per-stream state they retain in memory (sufficient statistics,
// history buffers, accumulators). Stores cache the value beside the length so
// Stats can aggregate it without faulting streams in or taking stream locks.
type StateSizer interface {
	StateBytes() int
}

// streamStateBytes reads a stream's retained-state size, 0 when the stream
// does not report one.
func streamStateBytes(st Stream) int64 {
	if sz, ok := st.(StateSizer); ok {
		return int64(sz.StateBytes())
	}
	return 0
}

// ErrNotFound is returned by store operations on IDs the store has never
// seen (or has deleted). Callers match it with errors.Is.
var ErrNotFound = errors.New("store: unknown stream")

// ErrNotPersistent is returned by Flush on backends without a disk layer.
var ErrNotPersistent = errors.New("store: backend has no persistence")

// Stats is a point-in-time snapshot of a store.
type Stats struct {
	// Streams is the number of live streams, resident or spilled.
	Streams int
	// Resident is the number of streams currently materialized in memory.
	Resident int
	// Spilled is the number of streams currently held only as segment files.
	Spilled int
	// Dirty is the number of streams modified since their last segment write
	// (always equal to Streams for non-persistent backends).
	Dirty int
	// Observations is the total observation count across all streams, from
	// per-stream cached lengths (no fault-in).
	Observations int64
	// StateBytes is the total retained in-memory state across resident
	// streams, from per-stream cached sizes (see StateSizer; spilled streams
	// retain no memory and contribute 0).
	StateBytes int64
	// Evictions counts resident→disk spills since the store opened.
	Evictions int64
	// Faults counts disk→resident fault-ins since the store opened.
	Faults int64
	// EvictErrors counts failed spill attempts (the stream stays resident).
	EvictErrors int64
}

// FlushStats describes one incremental checkpoint.
type FlushStats struct {
	// Segments is the number of segment files written by this flush — the
	// number of streams that were dirty, not the number of live streams.
	Segments int
	// SegmentBytes is the total encoded size of those segments.
	SegmentBytes int
	// ManifestBytes is the size of the manifest written at the end.
	ManifestBytes int
	// Streams is the number of streams the manifest covers.
	Streams int
}

// StreamStore is the Pool's storage engine. All methods are safe for
// concurrent use; operations on the same stream serialize, distinct streams
// proceed in parallel (up to shard granularity).
type StreamStore interface {
	// Update runs fn with exclusive access to the stream's materialized
	// state, creating the stream (when create is set) or faulting it in from
	// disk as needed. A nil return from fn marks the stream dirty. When the
	// stream does not exist and create is false, Update returns ErrNotFound
	// without calling fn.
	Update(id string, create bool, fn func(Stream) error) error
	// Read is Update without creation and without the dirty mark: for
	// operations whose state changes (if any) are deterministically
	// reconstructible from the last persisted state — estimate-cache fills,
	// lazy noise materialization — so the stream's segment on disk remains a
	// valid snapshot and a later eviction costs no write. Callers whose fn
	// mutates state that future *outputs* depend on must use Update.
	Read(id string, fn func(Stream) error) error
	// Length returns the stream's cached observation count without faulting
	// it in, and whether the stream exists.
	Length(id string) (int, bool)
	// Has reports whether the stream exists (resident or spilled).
	Has(id string) bool
	// Delete removes a stream and reports whether it existed.
	Delete(id string) bool
	// Keys returns the IDs of all live streams, sorted.
	Keys() []string
	// Export returns the stream's state as a complete, self-describing
	// segment file (internal/codec segment framing: store identity, stream
	// ID, CRC) plus its cached length — the unit of transfer the cluster
	// layer ships between nodes. For spilled streams the bytes come straight
	// from the segment file without faulting the stream in.
	Export(id string) (data []byte, length int64, err error)
	// Import installs a stream from a segment file produced by Export on a
	// peer with the same store identity. The segment's CRC and identity are
	// verified before any local state changes, so a corrupt or foreign
	// segment is rejected without side effects. length is the stream's
	// observation count at export time (segments do not embed it). An
	// existing stream with the same ID is replaced. Returns the imported
	// stream's ID.
	Import(data []byte, length int64) (id string, err error)
	// Stats returns a point-in-time snapshot.
	Stats() Stats
	// Flush writes an incremental checkpoint: every dirty stream's segment,
	// then the manifest. Non-persistent backends return ErrNotPersistent.
	Flush() (FlushStats, error)
}
