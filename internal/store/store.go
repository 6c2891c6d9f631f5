// Package store implements the Pool's storage engine, Store: the mapping
// from stream IDs to live estimator state. Opened on a directory, it is a
// bounded-memory store for the many-streams regime: at most a configurable
// number of estimators are resident; colder streams are serialized through
// their MarshalBinary codec to per-stream segment files on disk and
// transparently faulted back in on next access. Because checkpoint/restore
// is bit-identical (the estimator contract), spill and fault-in are
// invisible in the output sequence. The directory also gives incremental
// checkpointing: per-stream dirty tracking, segment rewrites only for streams
// that changed, and an fsynced, atomically renamed manifest as the recovery
// root, so restore-on-boot is O(manifest) with streams faulting in lazily.
// Opened without a directory, the same store keeps every stream resident for
// the life of the process and touches no file.
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

// ErrNotPersistent is returned by Flush on a store opened without a
// directory.
var ErrNotPersistent = errors.New("store: store has no directory")

// Stats is a point-in-time snapshot of a store.
type Stats struct {
	// Streams is the number of live streams: resident, spilled, or in the
	// first access that creates them (counted as neither resident nor
	// spilled until it brings them resident).
	Streams int
	// Resident is the number of streams currently materialized in memory.
	Resident int
	// Spilled is the number of streams currently held only as segment files.
	Spilled int
	// Dirty is the number of streams modified since their last segment write
	// (every stream of a store without a directory).
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
	// Shards is the number of lock shards stream IDs hash across: 64, or the
	// residency cap when a smaller cap must split exactly across shards.
	Shards int
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
