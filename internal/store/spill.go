package store

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"privreg/internal/codec"
)

// On-disk layout of a store rooted at dir:
//
//	dir/MANIFEST        recovery root: atomic-renamed, fsynced, versioned
//	dir/segments/       one segment file per stream generation
//
// Segment files are immutable once renamed into place: every write creates a
// new generation (<id-hash>-<gen>.seg) and the superseded file is deleted
// only after the next manifest no longer references it. Restore-on-boot reads
// only the manifest — streams fault in lazily on first access — so boot cost
// is O(live streams) metadata, not O(total state).
const (
	// ManifestFile is the manifest's file name inside the store directory.
	ManifestFile = "MANIFEST"
	// SegmentDir is the segment directory's name inside the store directory.
	SegmentDir = "segments"

	maxShards = 64
)

// Store is the Pool's storage engine. All methods are safe for concurrent
// use; operations on the same stream serialize, distinct streams proceed in
// parallel (up to shard granularity).
//
// With a directory, at most cap streams are resident (cap <= 0: unbounded);
// colder streams live as segment files and fault back in on access, and the
// disk layer (segment checkpoints, lazy restore) applies at any cap. With no
// directory the store is memory only: cap is 0, every stream stays resident,
// and no file is touched.
type Store struct {
	dir     string
	segDir  string
	meta    string // stamped into every segment and the manifest; checked on open
	factory Factory

	shards []shard

	gen atomic.Uint64 // segment file generation counter (unique per write)

	evictions   atomic.Int64
	faults      atomic.Int64
	evictErrors atomic.Int64

	// fsMu guards the bookkeeping that ties segment files to manifests.
	// Never acquired while holding a shard or entry lock's critical work —
	// only for short map/slice updates.
	fsMu sync.Mutex
	// unsynced holds segment files written by evictions (rename only, no
	// fsync — the hot path) since the last flush; Flush fsyncs them before
	// any manifest can reference them.
	unsynced map[string]struct{}
	// garbage holds superseded or dropped segment files that may still be
	// referenced by the last manifest; they are deleted only after a newer
	// manifest lands.
	garbage []string
	// manifestFiles is the set of segment files the latest on-disk manifest
	// references (used to keep Flush's garbage collection from deleting a
	// file a crash recovery would need).
	manifestFiles map[string]struct{}

	// flushMu serializes Flush: concurrent checkpoints would race on the
	// manifest rename and garbage collection.
	flushMu sync.Mutex
}

type shard struct {
	mu       sync.Mutex
	cap      int // max resident entries; <= 0 means unbounded
	table    map[string]*entry
	head     *entry // LRU list of resident entries, MRU first
	tail     *entry
	resident int
}

// entry is one stream's slot. Field ownership:
//   - st, file: guarded by mu (held across estimator work and disk I/O)
//   - prev, next, inLRU, pins, creating: guarded by the owning shard's mu
//   - len, dirty, dropped: atomics, readable under either lock
type entry struct {
	id string

	mu   sync.Mutex
	st   Stream // nil while spilled
	file string // current segment file name ("" before first write)

	prev, next *entry
	inLRU      bool
	pins       int
	// creating marks an entry made by an access that has not yet brought it
	// resident: neither resident nor spilled, so Stats counts it as neither.
	creating bool

	len     atomic.Int64
	bytes   atomic.Int64 // retained state of the resident estimator (0 while spilled)
	dirty   atomic.Bool
	dropped atomic.Bool
}

// Open opens (or creates) a store rooted at dir, or a memory-only store when
// dir is "". meta is an identity string (the Pool passes its mechanism name)
// stamped into segments and the manifest and verified on open and on
// import, so a store directory cannot be silently reused by an incompatible
// pool. cap bounds resident streams (<= 0 means unbounded) and must be 0
// without a directory, which has nowhere to evict to. If a manifest exists,
// its streams are registered immediately — with their lengths — but their
// state faults in lazily.
func Open(dir, meta string, cap int, factory Factory) (*Store, error) {
	if dir == "" && cap > 0 {
		return nil, errors.New("store: a residency cap needs a directory to spill to")
	}
	s := &Store{
		dir:           dir,
		meta:          meta,
		factory:       factory,
		unsynced:      make(map[string]struct{}),
		manifestFiles: make(map[string]struct{}),
	}
	// Shard layout: with a bounded cap the per-shard caps must sum exactly to
	// cap (so "resident <= cap" is a hard invariant, not a rounding hope),
	// which needs nshards <= cap; unbounded stores always use the full fan-out.
	nshards := maxShards
	if cap > 0 && cap < nshards {
		nshards = cap
	}
	s.shards = make([]shard, nshards)
	for i := range s.shards {
		s.shards[i].table = make(map[string]*entry)
		if cap <= 0 {
			s.shards[i].cap = 0
		} else {
			c := cap / nshards
			if i < cap%nshards {
				c++
			}
			s.shards[i].cap = c
		}
	}
	if dir == "" {
		return s, nil
	}
	// Segments hold raw private accumulator state — exactly as sensitive as
	// the process memory — so the tree is owner-only.
	s.segDir = filepath.Join(dir, SegmentDir)
	if err := os.MkdirAll(s.segDir, 0o700); err != nil {
		return nil, fmt.Errorf("store: creating segment directory: %w", err)
	}
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// loadManifest reads the manifest (if any), registers every stream as a
// lazily faulted spilled entry, garbage-collects segment files a crashed
// flush or eviction left unreferenced, and advances the generation counter
// past every referenced file.
func (s *Store) loadManifest() error {
	data, err := os.ReadFile(filepath.Join(s.dir, ManifestFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil // clean first boot
	}
	if err != nil {
		return fmt.Errorf("store: reading manifest: %w", err)
	}
	meta, entries, err := codec.DecodeManifest(data)
	if err != nil {
		return fmt.Errorf("store: %s: %w", filepath.Join(s.dir, ManifestFile), err)
	}
	if meta != s.meta {
		return fmt.Errorf("store: manifest is for %q, store opened for %q", meta, s.meta)
	}
	var maxGen uint64
	for _, me := range entries {
		e := &entry{id: me.ID, file: me.File}
		e.len.Store(me.Len)
		sh := s.shardFor(me.ID)
		if _, dup := sh.table[me.ID]; dup {
			return fmt.Errorf("store: manifest lists stream %q twice", me.ID)
		}
		sh.table[me.ID] = e
		s.manifestFiles[me.File] = struct{}{}
		if g := segmentGen(me.File); g > maxGen {
			maxGen = g
		}
	}
	s.gen.Store(maxGen)
	// Remove segment files the manifest does not reference: leftovers from a
	// crash between segment writes and the manifest rename. They are not
	// recoverable state — the manifest is the only root.
	dirents, err := os.ReadDir(s.segDir)
	if err != nil {
		return fmt.Errorf("store: listing segments: %w", err)
	}
	for _, de := range dirents {
		if _, ok := s.manifestFiles[de.Name()]; !ok {
			_ = os.Remove(filepath.Join(s.segDir, de.Name()))
		}
	}
	return nil
}

// segmentName builds a fresh segment file name for a stream: an ID hash for
// human debuggability plus a store-unique generation for correctness.
func (s *Store) segmentName(id string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return fmt.Sprintf("%016x-%d.seg", h.Sum64(), s.gen.Add(1))
}

// segmentGen parses the generation out of a segment file name (0 when the
// name is foreign).
func segmentGen(name string) uint64 {
	rest, ok := strings.CutSuffix(name, ".seg")
	if !ok {
		return 0
	}
	_, genStr, ok := strings.Cut(rest, "-")
	if !ok {
		return 0
	}
	g, err := strconv.ParseUint(genStr, 10, 64)
	if err != nil {
		return 0
	}
	return g
}

func (s *Store) shardFor(id string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return &s.shards[h.Sum32()%uint32(len(s.shards))]
}

// --- LRU plumbing (all under the shard lock) --------------------------------

func (sh *shard) pushFront(e *entry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
	e.inLRU = true
	sh.resident++
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.inLRU = false
	sh.resident--
}

func (sh *shard) moveFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// --- access path ------------------------------------------------------------

// Update runs fn with exclusive access to the stream's materialized state,
// creating the stream (when create is set) or faulting it in from disk as
// needed. A nil return from fn marks the stream dirty. When the stream does
// not exist and create is false, Update returns ErrNotFound without calling
// fn.
func (s *Store) Update(id string, create bool, fn func(Stream) error) error {
	return s.access(id, create, true, fn)
}

// Read is Update without creation and without the dirty mark: for
// operations whose state changes (if any) are deterministically
// reconstructible from the last persisted state — estimate-cache fills, read
// workspaces — so the stream's segment on disk remains a valid
// snapshot and a later eviction or flush costs no write. Callers whose fn
// mutates state that future outputs depend on must use Update.
func (s *Store) Read(id string, fn func(Stream) error) error {
	return s.access(id, false, false, fn)
}

func (s *Store) access(id string, create, markDirty bool, fn func(Stream) error) error {
	sh := s.shardFor(id)
	sh.mu.Lock()
	e := sh.table[id]
	created := false
	if e == nil {
		if !create {
			sh.mu.Unlock()
			return ErrNotFound
		}
		e = &entry{id: id, creating: true}
		sh.table[id] = e
		created = true
	}
	e.pins++
	sh.mu.Unlock()

	e.mu.Lock()
	err := s.materialize(e)
	materialized := e.st != nil
	if err == nil {
		err = fn(e.st)
		e.len.Store(int64(e.st.Len()))
		e.bytes.Store(streamStateBytes(e.st))
		if err == nil && markDirty {
			e.dirty.Store(true)
		}
	}
	e.mu.Unlock()

	s.release(sh, e, materialized, created && err != nil)
	return err
}

// materialize ensures e.st is live: fault in from the segment file when one
// exists, otherwise build a fresh stream. Called with e.mu held.
func (s *Store) materialize(e *entry) error {
	if e.st != nil {
		return nil
	}
	st, err := s.factory(e.id)
	if err != nil {
		return err
	}
	if e.file != "" {
		blob, err := s.readSegment(e.file, e.id)
		if err != nil {
			return err
		}
		if err := st.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("store: faulting in stream %q: %w", e.id, err)
		}
		s.faults.Add(1)
	}
	e.st = st
	e.len.Store(int64(st.Len()))
	e.bytes.Store(streamStateBytes(st))
	return nil
}

// release is the bookkeeping tail of every pinned access: unpin, keep the
// LRU in sync with residency, remove the entry a failed first access
// created, and evict past-cap residents.
//
// failedCreate is set when this access created the entry and then the
// factory or fn failed. The entry is then removed, in both store modes, so a
// rejected first batch leaves no stream behind: none to list, to count or to
// lose at the next reopen. An entry a concurrent caller still pins, or has
// made dirty or non-empty, is a real stream and stays.
func (s *Store) release(sh *shard, e *entry, materialized, failedCreate bool) {
	var victims []*entry
	sh.mu.Lock()
	e.pins--
	if !e.dropped.Load() {
		switch {
		case failedCreate && e.pins == 0 && !e.dirty.Load() && e.len.Load() == 0:
			if e.inLRU {
				sh.unlink(e)
			}
			delete(sh.table, e.id)
			e.dropped.Store(true)
		case materialized && !e.inLRU:
			e.creating = false
			sh.pushFront(e)
		case materialized:
			sh.moveFront(e)
		}
		victims = sh.collectVictims()
	}
	sh.mu.Unlock()
	for _, v := range victims {
		s.spillOut(sh, v)
	}
}

// collectVictims unlinks past-cap LRU-tail entries (skipping pinned ones)
// and returns them for spilling. Called with sh.mu held.
func (sh *shard) collectVictims() []*entry {
	if sh.cap <= 0 || sh.resident <= sh.cap {
		return nil
	}
	var victims []*entry
	e := sh.tail
	for e != nil && sh.resident > sh.cap {
		prev := e.prev
		if e.pins == 0 {
			sh.unlink(e)
			victims = append(victims, e)
		}
		e = prev
	}
	return victims
}

// spillOut serializes a victim's state to a fresh segment file and releases
// the in-memory estimator. On failure the stream is put back in the LRU (the
// state must not be lost) and the error is counted.
func (s *Store) spillOut(sh *shard, v *entry) {
	v.mu.Lock()
	if v.dropped.Load() || v.st == nil {
		v.mu.Unlock()
		return
	}
	if !v.dirty.Load() {
		// Clean evictions are free: either the segment on disk already holds
		// exactly this state, or the stream was never successfully mutated
		// and the factory rebuilds it bit-identically. Just release the
		// memory — read-heavy churn over cap costs no writes.
		v.st = nil
		v.bytes.Store(0)
		v.mu.Unlock()
		s.evictions.Add(1)
		return
	}
	blob, err := v.st.MarshalBinary()
	if err == nil {
		_, err = s.writeSegmentLocked(v, blob, false)
	}
	if err != nil {
		v.mu.Unlock()
		s.evictErrors.Add(1)
		sh.mu.Lock()
		if !v.dropped.Load() && !v.inLRU {
			sh.pushFront(v)
		}
		sh.mu.Unlock()
		return
	}
	v.st = nil
	v.bytes.Store(0)
	v.dirty.Store(false)
	v.mu.Unlock()
	s.evictions.Add(1)
}

// writeSegmentLocked writes a new segment generation for e (temp file +
// atomic rename), updates e.file, and queues the superseded file for
// collection after the next manifest. sync controls whether the file is
// fsynced before the rename: Flush syncs inline, evictions defer the sync to
// the next Flush (recorded in unsynced). Called with e.mu held; returns the
// encoded segment size.
func (s *Store) writeSegmentLocked(e *entry, blob []byte, sync bool) (int, error) {
	name := s.segmentName(e.id)
	path := filepath.Join(s.segDir, name)
	data := codec.EncodeSegment(s.meta, e.id, blob)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return 0, fmt.Errorf("store: creating segment: %w", err)
	}
	if _, err = f.Write(data); err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return 0, fmt.Errorf("store: writing segment for stream %q: %w", e.id, err)
	}
	old := e.file
	e.file = name
	s.fsMu.Lock()
	if !sync {
		s.unsynced[name] = struct{}{}
	}
	if old != "" {
		s.garbage = append(s.garbage, old)
	}
	s.fsMu.Unlock()
	return len(data), nil
}

// readSegment reads and verifies one segment file, returning the stream blob.
func (s *Store) readSegment(name, wantID string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.segDir, name))
	if err != nil {
		return nil, fmt.Errorf("store: reading segment for stream %q: %w", wantID, err)
	}
	meta, id, blob, err := codec.DecodeSegment(data)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", name, err)
	}
	if meta != s.meta || id != wantID {
		return nil, fmt.Errorf("store: segment %s belongs to stream %q of %q, wanted stream %q of %q", name, id, meta, wantID, s.meta)
	}
	return blob, nil
}

// --- bookkeeping, transfer and checkpoints -----------------------------------

// Length returns the stream's cached observation count without faulting it
// in, and whether the stream exists.
func (s *Store) Length(id string) (int, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	e := sh.table[id]
	sh.mu.Unlock()
	if e == nil {
		return 0, false
	}
	return int(e.len.Load()), true
}

// StateBytes returns the stream's retained in-memory state as the residency
// accounting tracks it (0 while spilled), without faulting it in, and
// whether the stream exists.
func (s *Store) StateBytes(id string) (int64, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	e := sh.table[id]
	sh.mu.Unlock()
	if e == nil {
		return 0, false
	}
	return e.bytes.Load(), true
}

// Has reports whether the stream exists (resident or spilled).
func (s *Store) Has(id string) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	_, ok := sh.table[id]
	sh.mu.Unlock()
	return ok
}

// Delete removes a stream and reports whether it existed.
func (s *Store) Delete(id string) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	e := sh.table[id]
	if e == nil {
		sh.mu.Unlock()
		return false
	}
	delete(sh.table, id)
	e.dropped.Store(true)
	if e.inLRU {
		sh.unlink(e)
	}
	sh.mu.Unlock()
	// Release the dropped state. Taking e.mu serializes with any in-flight
	// operation that pinned the entry before the drop.
	e.mu.Lock()
	file := e.file
	e.file = ""
	e.st = nil
	e.bytes.Store(0)
	e.mu.Unlock()
	if file != "" {
		s.fsMu.Lock()
		s.garbage = append(s.garbage, file)
		s.fsMu.Unlock()
	}
	return true
}

// Keys returns the IDs of all live streams, sorted.
func (s *Store) Keys() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for id := range sh.table {
			out = append(out, id)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Export returns the stream's state as a complete, self-describing segment
// file (internal/codec segment framing: store identity, stream ID, CRC) plus
// its cached length — the unit of transfer the cluster layer ships between
// nodes. Spilled clean streams are served verbatim from disk (after CRC
// verification) — the file already is the transfer format — so continuous
// replication of cold streams costs reads, not deserialization.
func (s *Store) Export(id string) ([]byte, int64, error) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	e := sh.table[id]
	if e == nil {
		sh.mu.Unlock()
		return nil, 0, ErrNotFound
	}
	e.pins++
	sh.mu.Unlock()

	e.mu.Lock()
	var data []byte
	var err error
	switch {
	case e.st != nil:
		var blob []byte
		blob, err = e.st.MarshalBinary()
		if err == nil {
			data = codec.EncodeSegment(s.meta, e.id, blob)
		}
	case e.file != "":
		data, err = os.ReadFile(filepath.Join(s.segDir, e.file))
		if err == nil {
			// Verify before shipping: a locally corrupt segment must fail
			// here, not poison a peer.
			var meta, segID string
			meta, segID, _, err = codec.DecodeSegment(data)
			if err == nil && (meta != s.meta || segID != e.id) {
				err = fmt.Errorf("store: segment %s belongs to stream %q of %q, wanted %q of %q", e.file, segID, meta, e.id, s.meta)
			}
		}
	default:
		err = ErrNotFound // placeholder caught mid-create; nothing to ship
	}
	length := e.len.Load()
	materialized := e.st != nil
	e.mu.Unlock()

	s.release(sh, e, materialized, false)
	if err != nil {
		return nil, 0, err
	}
	return data, length, nil
}

// Import installs a stream from a segment file produced by Export on a peer
// with the same store identity, replacing any existing stream with the same
// ID, and returns its ID. The segment's CRC and identity are verified before
// any local state changes, so a corrupt or foreign segment is rejected
// without side effects. length is the stream's observation count at export
// time (segments do not embed it).
//
// With a directory the bytes are written verbatim to a fresh local
// generation under segments/ and the stream is registered spilled and clean —
// no deserialization, no residency cost. The next Flush's manifest adopts the
// file; until then a crash leaves it as an orphan the boot-time GC removes,
// which is exactly the half-finished-import semantics the handoff protocol
// wants (the source still owns the authoritative copy until commit). A
// memory-only store rebuilds the stream from the segment and installs it
// resident, with its own Len as the length.
func (s *Store) Import(data []byte, length int64) (string, error) {
	meta, id, blob, err := codec.DecodeSegment(data)
	if err != nil {
		return "", fmt.Errorf("store: importing segment: %w", err)
	}
	if meta != s.meta {
		return "", fmt.Errorf("store: imported segment is for %q, store holds %q", meta, s.meta)
	}

	e := &entry{id: id}
	if s.dir == "" {
		st, err := s.factory(id)
		if err != nil {
			return "", err
		}
		if err := st.UnmarshalBinary(blob); err != nil {
			return "", fmt.Errorf("store: importing stream %q: %w", id, err)
		}
		e.st = st
		e.len.Store(int64(st.Len()))
		e.bytes.Store(streamStateBytes(st))
		e.dirty.Store(true)
	} else {
		name := s.segmentName(id)
		path := filepath.Join(s.segDir, name)
		tmp := path + ".tmp"
		f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
		if err != nil {
			return "", fmt.Errorf("store: creating imported segment: %w", err)
		}
		_, err = f.Write(data)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, path)
		}
		if err != nil {
			_ = os.Remove(tmp)
			return "", fmt.Errorf("store: writing imported segment for stream %q: %w", id, err)
		}
		e.file = name
		e.len.Store(length)
	}

	sh := s.shardFor(id)
	var oldFile string
	sh.mu.Lock()
	if old := sh.table[id]; old != nil {
		old.dropped.Store(true)
		if old.inLRU {
			sh.unlink(old)
		}
		oldFile = old.file
	}
	sh.table[id] = e
	if e.st != nil {
		sh.pushFront(e)
	}
	sh.mu.Unlock()
	s.fsMu.Lock()
	if e.file != "" {
		s.unsynced[e.file] = struct{}{}
	}
	if oldFile != "" {
		s.garbage = append(s.garbage, oldFile)
	}
	s.fsMu.Unlock()
	return id, nil
}

// Stats returns a point-in-time snapshot.
func (s *Store) Stats() Stats {
	var st Stats
	creating := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.Streams += len(sh.table)
		st.Resident += sh.resident
		for _, e := range sh.table {
			if e.creating {
				creating++
			}
			st.Observations += e.len.Load()
			st.StateBytes += e.bytes.Load()
			if e.dirty.Load() {
				st.Dirty++
			}
		}
		sh.mu.Unlock()
	}
	st.Spilled = st.Streams - st.Resident - creating
	st.Shards = len(s.shards)
	st.Evictions = s.evictions.Load()
	st.Faults = s.faults.Load()
	st.EvictErrors = s.evictErrors.Load()
	return st
}

// Flush writes an incremental checkpoint, or returns ErrNotPersistent on a
// memory-only store:
//
//  1. every dirty resident stream's state goes to a fresh segment file,
//     fsynced (streams untouched since the last flush are skipped — their
//     segment on disk is already current, which is what makes a checkpoint
//     after touching M of N streams O(M));
//  2. the live streams' current segment files are snapshotted (the manifest
//     content), then segment files written by evictions since the last flush
//     are fsynced — in that order, so every file the manifest names is
//     durable before the manifest is;
//  3. the manifest is written to a temp file, fsynced, atomically renamed
//     over the previous manifest, and the directory is fsynced, so the
//     recovery root moves forward atomically;
//  4. segment files superseded before this manifest are deleted.
//
// Concurrent traffic is not blocked globally: each stream is locked only
// while its own state is serialized, so the checkpoint is the usual
// per-stream-consistent snapshot.
func (s *Store) Flush() (FlushStats, error) {
	if s.dir == "" {
		return FlushStats{}, ErrNotPersistent
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	var out FlushStats

	// 1. Flush dirty resident streams.
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		entries := make([]*entry, 0, len(sh.table))
		for _, e := range sh.table {
			entries = append(entries, e)
		}
		sh.mu.Unlock()
		for _, e := range entries {
			if e.dropped.Load() || !e.dirty.Load() {
				continue
			}
			e.mu.Lock()
			var n int
			var err error
			if e.dirty.Load() && e.st != nil && !e.dropped.Load() {
				var blob []byte
				blob, err = e.st.MarshalBinary()
				if err == nil {
					n, err = s.writeSegmentLocked(e, blob, true)
				}
				if err == nil {
					e.dirty.Store(false)
				}
			}
			e.mu.Unlock()
			if err != nil {
				return out, err
			}
			if n > 0 {
				out.Segments++
				out.SegmentBytes += n
			}
		}
	}

	// 2. Snapshot the live streams — the manifest content. This happens
	// BEFORE the unsynced sweep in step 3: any segment a snapshotted e.file
	// names was written before this point, so it is either already durable
	// (step-1 writes sync inline) or still present in unsynced and synced by
	// step 3. An eviction racing in after the snapshot installs a file this
	// manifest does not reference, which the next flush will cover.
	var entries []codec.ManifestEntry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		snapshot := make([]*entry, 0, len(sh.table))
		for _, e := range sh.table {
			snapshot = append(snapshot, e)
		}
		sh.mu.Unlock()
		for _, e := range snapshot {
			if e.dropped.Load() {
				continue
			}
			e.mu.Lock()
			file := e.file
			e.mu.Unlock()
			if file == "" {
				continue // created after step 1; the next flush will cover it
			}
			entries = append(entries, codec.ManifestEntry{ID: e.id, File: file, Len: e.len.Load()})
		}
	}

	// 3. Make eviction-written segments durable before the manifest can
	// reference them. The unsynced set is drained name-by-name only after
	// each successful sync, so an I/O error leaves the remaining names
	// queued for the next flush instead of silently forgotten.
	s.fsMu.Lock()
	pending := make([]string, 0, len(s.unsynced))
	for name := range s.unsynced {
		pending = append(pending, name)
	}
	s.fsMu.Unlock()
	for _, name := range pending {
		if err := syncFile(filepath.Join(s.segDir, name)); err != nil {
			return out, err
		}
		s.fsMu.Lock()
		delete(s.unsynced, name)
		s.fsMu.Unlock()
	}
	if err := syncDir(s.segDir); err != nil {
		return out, err
	}

	// 4. Write the manifest.
	data := codec.EncodeManifest(s.meta, entries)
	if err := writeFileAtomic(filepath.Join(s.dir, ManifestFile), data); err != nil {
		return out, err
	}
	if err := syncDir(s.dir); err != nil {
		return out, err
	}
	out.ManifestBytes = len(data)
	out.Streams = len(entries)

	// 5. Garbage-collect superseded segments no longer reachable from the
	// manifest just written. A file both superseded and referenced (a flush
	// raced an eviction) stays until the next flush.
	referenced := make(map[string]struct{}, len(entries))
	for _, me := range entries {
		referenced[me.File] = struct{}{}
	}
	s.fsMu.Lock()
	var keep []string
	for _, name := range s.garbage {
		if _, ok := referenced[name]; ok {
			keep = append(keep, name)
			continue
		}
		_ = os.Remove(filepath.Join(s.segDir, name))
	}
	s.garbage = keep
	s.manifestFiles = referenced
	s.fsMu.Unlock()
	return out, nil
}

func syncFile(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // superseded and collected between bookkeeping and here
	}
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so completed renames inside it are durable.
// Best-effort on platforms where directories cannot be opened for sync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	_ = d.Sync()
	return d.Close()
}

// writeFileAtomic writes data to path via a sibling temp file, fsync, and
// atomic rename, so path always holds either the previous or the new
// complete content.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return nil
}
