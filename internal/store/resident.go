package store

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"privreg/internal/codec"
)

// residentShards is the number of lock shards a Resident store spreads its
// streams over (the Pool's historical value): stream IDs hash to shards, so
// unrelated streams contend only 1/residentShards of the time, and each
// stream carries its own mutex for the (much longer) estimator work.
const residentShards = 64

// Resident is the fully-resident StreamStore: every stream stays in memory
// for the life of the process. It is the default backend and preserves the
// Pool's original sharded-locking behavior exactly.
type Resident struct {
	meta    string // store identity stamped into exported segments
	factory Factory
	shards  [residentShards]residentShard
}

type residentShard struct {
	mu      sync.RWMutex
	streams map[string]*residentEntry
}

type residentEntry struct {
	mu    sync.Mutex
	st    Stream
	len   atomic.Int64
	bytes atomic.Int64
}

// NewResident returns an empty fully-resident store building streams with
// the given factory. meta is the store identity (the Pool passes its
// mechanism name) stamped into exported segments and checked on import, the
// same contract the Spill store enforces on its directory.
func NewResident(meta string, factory Factory) *Resident {
	r := &Resident{meta: meta, factory: factory}
	for i := range r.shards {
		r.shards[i].streams = make(map[string]*residentEntry)
	}
	return r
}

func shardIndex(id string, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}

func (r *Resident) shardFor(id string) *residentShard {
	return &r.shards[shardIndex(id, residentShards)]
}

// entry returns the residentEntry for id, creating it when create is set.
func (r *Resident) entry(id string, create bool) (*residentEntry, error) {
	sh := r.shardFor(id)
	sh.mu.RLock()
	e := sh.streams[id]
	sh.mu.RUnlock()
	if e != nil {
		return e, nil
	}
	if !create {
		return nil, ErrNotFound
	}
	// Build outside the shard lock (construction can be expensive: sketch
	// sampling, tree allocation), then insert; on a race the loser's stream
	// is discarded.
	st, err := r.factory(id)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	if existing := sh.streams[id]; existing != nil {
		sh.mu.Unlock()
		return existing, nil
	}
	e = &residentEntry{st: st}
	sh.streams[id] = e
	sh.mu.Unlock()
	return e, nil
}

func (r *Resident) Update(id string, create bool, fn func(Stream) error) error {
	e, err := r.entry(id, create)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	err = fn(e.st)
	e.len.Store(int64(e.st.Len()))
	e.bytes.Store(streamStateBytes(e.st))
	return err
}

// Read is Update without creation; a fully-resident store has no dirty
// tracking to skip.
func (r *Resident) Read(id string, fn func(Stream) error) error {
	return r.Update(id, false, fn)
}

func (r *Resident) Length(id string) (int, bool) {
	sh := r.shardFor(id)
	sh.mu.RLock()
	e := sh.streams[id]
	sh.mu.RUnlock()
	if e == nil {
		return 0, false
	}
	return int(e.len.Load()), true
}

func (r *Resident) Has(id string) bool {
	sh := r.shardFor(id)
	sh.mu.RLock()
	_, ok := sh.streams[id]
	sh.mu.RUnlock()
	return ok
}

func (r *Resident) Delete(id string) bool {
	sh := r.shardFor(id)
	sh.mu.Lock()
	_, ok := sh.streams[id]
	delete(sh.streams, id)
	sh.mu.Unlock()
	return ok
}

func (r *Resident) Keys() []string {
	var out []string
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for id := range sh.streams {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Export serializes the stream and frames it as a segment; a fully-resident
// store has no segment files to serve verbatim, so this always marshals.
func (r *Resident) Export(id string) ([]byte, int64, error) {
	sh := r.shardFor(id)
	sh.mu.RLock()
	e := sh.streams[id]
	sh.mu.RUnlock()
	if e == nil {
		return nil, 0, ErrNotFound
	}
	e.mu.Lock()
	blob, err := e.st.MarshalBinary()
	length := int64(e.st.Len())
	e.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	return codec.EncodeSegment(r.meta, id, blob), length, nil
}

// Import verifies and materializes a peer's segment, then installs it.
func (r *Resident) Import(data []byte, length int64) (string, error) {
	meta, id, blob, err := codec.DecodeSegment(data)
	if err != nil {
		return "", fmt.Errorf("store: importing segment: %w", err)
	}
	if meta != r.meta {
		return "", fmt.Errorf("store: imported segment is for %q, store holds %q", meta, r.meta)
	}
	st, err := r.factory(id)
	if err != nil {
		return "", err
	}
	if err := st.UnmarshalBinary(blob); err != nil {
		return "", fmt.Errorf("store: importing stream %q: %w", id, err)
	}
	_ = length // resident imports materialize, so the stream's own Len governs
	e := &residentEntry{st: st}
	e.len.Store(int64(st.Len()))
	e.bytes.Store(streamStateBytes(st))
	sh := r.shardFor(id)
	sh.mu.Lock()
	sh.streams[id] = e
	sh.mu.Unlock()
	return id, nil
}

func (r *Resident) Stats() Stats {
	var s Stats
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		s.Streams += len(sh.streams)
		for _, e := range sh.streams {
			s.Observations += e.len.Load()
			s.StateBytes += e.bytes.Load()
		}
		sh.mu.RUnlock()
	}
	s.Resident = s.Streams
	s.Dirty = s.Streams
	return s
}

func (r *Resident) Flush() (FlushStats, error) {
	return FlushStats{}, ErrNotPersistent
}
