package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"privreg/internal/codec"
)

// fakeStream is a minimal Stream for store tests: an append-only list of
// float64 values with a self-identifying binary codec.
type fakeStream struct {
	id   string
	vals []float64
}

func (f *fakeStream) Len() int { return len(f.vals) }

func (f *fakeStream) append(v float64) { f.vals = append(f.vals, v) }

func (f *fakeStream) MarshalBinary() ([]byte, error) {
	var w codec.Writer
	w.String(f.id)
	w.F64s(f.vals)
	return w.Bytes(), nil
}

func (f *fakeStream) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	id := r.String()
	vals := r.F64s()
	if err := r.Finish(); err != nil {
		return err
	}
	if id != f.id {
		return fmt.Errorf("fake stream %q restored blob of %q", f.id, id)
	}
	f.vals = vals
	return nil
}

func fakeFactory() Factory {
	return func(id string) (Stream, error) { return &fakeStream{id: id}, nil }
}

// memStore opens a memory-only store: no directory, no cap.
func memStore(t *testing.T, meta string) *Store {
	t.Helper()
	s, err := Open("", meta, 0, fakeFactory())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// appendTo pushes one value through Update, creating the stream.
func appendTo(t *testing.T, s *Store, id string, v float64) {
	t.Helper()
	if err := s.Update(id, true, func(st Stream) error {
		st.(*fakeStream).append(v)
		return nil
	}); err != nil {
		t.Fatalf("update %s: %v", id, err)
	}
}

// valuesOf reads a stream's values through Update without mutating.
func valuesOf(t *testing.T, s *Store, id string) []float64 {
	t.Helper()
	var out []float64
	if err := s.Update(id, false, func(st Stream) error {
		out = append([]float64(nil), st.(*fakeStream).vals...)
		return nil
	}); err != nil {
		t.Fatalf("read %s: %v", id, err)
	}
	return out
}

// TestResidentBasics covers the memory-only store (no directory): every
// stream resident and dirty, segments imported resident, Flush refused.
func TestResidentBasics(t *testing.T) {
	s := memStore(t, "fake")
	if err := s.Update("ghost", false, func(Stream) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Update(no-create, unknown) = %v, want ErrNotFound", err)
	}
	appendTo(t, s, "a", 1)
	appendTo(t, s, "a", 2)
	appendTo(t, s, "b", 3)
	if n, ok := s.Length("a"); n != 2 || !ok {
		t.Fatalf("Length(a) = %d, %v", n, ok)
	}
	if _, ok := s.Length("ghost"); ok {
		t.Fatal("Length(unknown) reported existing")
	}
	if got := s.Keys(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Keys = %v", got)
	}
	st := s.Stats()
	if st.Streams != 2 || st.Resident != 2 || st.Spilled != 0 || st.Dirty != 2 || st.Observations != 3 || st.Shards != maxShards {
		t.Fatalf("Stats = %+v", st)
	}
	// Export/Import round-trips a stream into a second store.
	data, n, err := s.Export("a")
	if err != nil {
		t.Fatal(err)
	}
	s2 := memStore(t, "fake")
	if _, err := s2.Import(data, n); err != nil {
		t.Fatal(err)
	}
	if got := valuesOf(t, s2, "a"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("imported stream = %v", got)
	}
	if n, ok := s2.Length("a"); n != 2 || !ok {
		t.Fatalf("imported Length(a) = %d, %v", n, ok)
	}
	if st := s2.Stats(); st.Resident != 1 || st.Dirty != 1 {
		t.Fatalf("imported stream not resident and dirty: %+v", st)
	}
	if !s.Delete("b") || s.Delete("b") || s.Has("b") {
		t.Fatal("Delete semantics broken")
	}
	if _, err := s.Flush(); !errors.Is(err, ErrNotPersistent) {
		t.Fatalf("memory-only Flush = %v, want ErrNotPersistent", err)
	}
	if _, err := Open("", "fake", 4, fakeFactory()); err == nil {
		t.Fatal("memory-only store accepted a residency cap")
	}
}

func TestSpillEvictsBeyondCapAndFaultsBackIn(t *testing.T) {
	const cap = 2
	s, err := Open(t.TempDir(), "test", cap, fakeFactory())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("s%d", i)
		appendTo(t, s, id, float64(i))
		appendTo(t, s, id, float64(i)+0.5)
	}
	st := s.Stats()
	if st.Streams != 6 || st.Resident > cap || st.Spilled < 6-cap {
		t.Fatalf("Stats after churn = %+v, want resident <= %d", st, cap)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
	// Cached lengths are available without fault-in.
	faultsBefore := s.Stats().Faults
	for i := 0; i < 6; i++ {
		if n, ok := s.Length(fmt.Sprintf("s%d", i)); n != 2 || !ok {
			t.Fatalf("Length(s%d) = %d, %v", i, n, ok)
		}
	}
	if got := s.Stats().Faults; got != faultsBefore {
		t.Fatalf("Length faulted streams in (%d -> %d)", faultsBefore, got)
	}
	// Spilled values fault back in intact.
	for i := 0; i < 6; i++ {
		got := valuesOf(t, s, fmt.Sprintf("s%d", i))
		if len(got) != 2 || got[0] != float64(i) || got[1] != float64(i)+0.5 {
			t.Fatalf("s%d = %v after fault-in", i, got)
		}
	}
	if got := s.Stats().Faults; got == faultsBefore {
		t.Fatal("reading all streams above cap recorded no fault-ins")
	}
	if got := s.Stats(); got.Resident > cap {
		t.Fatalf("resident %d exceeds cap %d after reads", got.Resident, cap)
	}
}

func TestSpillShardCapsSumExactly(t *testing.T) {
	for _, cap := range []int{1, 2, 5, 63, 64, 100, 1000} {
		s, err := Open(t.TempDir(), "test", cap, fakeFactory())
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i := range s.shards {
			if s.shards[i].cap < 1 {
				t.Fatalf("cap=%d: shard %d has cap %d", cap, i, s.shards[i].cap)
			}
			total += s.shards[i].cap
		}
		if total != cap {
			t.Fatalf("cap=%d: shard caps sum to %d", cap, total)
		}
	}
}

func TestSpillFlushIsIncrementalAndReopens(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "test", 4, fakeFactory())
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		appendTo(t, s, fmt.Sprintf("s%d", i), float64(i))
	}
	fs, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	// Every stream was dirty (resident-dirty or spilled via eviction);
	// segments counts only the flush-written ones, the manifest covers all.
	if fs.Streams != n || fs.ManifestBytes == 0 {
		t.Fatalf("first flush = %+v, want %d streams", fs, n)
	}
	if st := s.Stats(); st.Dirty != 0 {
		t.Fatalf("dirty after flush = %d, want 0", st.Dirty)
	}

	// Touch 3 streams; the next flush rewrites exactly those segments.
	for _, id := range []string{"s1", "s4", "s7"} {
		appendTo(t, s, id, 99)
	}
	fs, err = s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Segments != 3 {
		t.Fatalf("incremental flush wrote %d segments, want 3 (touched streams only)", fs.Segments)
	}
	if fs.Streams != n {
		t.Fatalf("manifest covers %d streams, want %d", fs.Streams, n)
	}

	// A no-op flush writes no segments at all.
	fs, err = s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Segments != 0 || fs.Streams != n {
		t.Fatalf("idle flush = %+v", fs)
	}

	// Reopen: all streams registered lazily with cached lengths, no fault-ins
	// until state is actually needed.
	s2, err := Open(dir, "test", 4, fakeFactory())
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Keys(); len(got) != n {
		t.Fatalf("reopened Keys = %v", got)
	}
	st := s2.Stats()
	if st.Resident != 0 || st.Faults != 0 || st.Streams != n {
		t.Fatalf("reopened Stats = %+v, want fully lazy", st)
	}
	if ln, ok := s2.Length("s4"); !ok || ln != 2 {
		t.Fatalf("reopened Length(s4) = %d, %v (want cached 2)", ln, ok)
	}
	if got := valuesOf(t, s2, "s4"); len(got) != 2 || got[0] != 4 || got[1] != 99 {
		t.Fatalf("reopened s4 = %v", got)
	}
	if got := valuesOf(t, s2, "s0"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("reopened s0 = %v", got)
	}
}

func TestSpillGarbageCollectsSupersededSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "test", 8, fakeFactory())
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		appendTo(t, s, fmt.Sprintf("s%d", i), 1)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	segs := func() int {
		des, err := os.ReadDir(filepath.Join(dir, SegmentDir))
		if err != nil {
			t.Fatal(err)
		}
		return len(des)
	}
	if got := segs(); got != n {
		t.Fatalf("%d segment files after first flush, want %d", got, n)
	}
	// Rewriting two streams twice leaves exactly one live segment per stream
	// after the next flush — superseded generations are collected.
	for round := 0; round < 2; round++ {
		appendTo(t, s, "s0", 2)
		appendTo(t, s, "s3", 2)
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := segs(); got != n {
		t.Fatalf("%d segment files after rewrites, want %d (no garbage)", got, n)
	}
	// Deleting a stream removes it from the manifest and, after the flush,
	// its segment from disk.
	if !s.Delete("s5") {
		t.Fatal("delete failed")
	}
	if fs, err := s.Flush(); err != nil || fs.Streams != n-1 {
		t.Fatalf("flush after delete = %+v, %v", fs, err)
	}
	if got := segs(); got != n-1 {
		t.Fatalf("%d segment files after delete, want %d", got, n-1)
	}
	s2, err := Open(dir, "test", 8, fakeFactory())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Has("s5") {
		t.Fatal("deleted stream resurrected on reopen")
	}
}

func TestSpillExportSpilledStreamServesSegmentWithoutFaultIn(t *testing.T) {
	s, err := Open(t.TempDir(), "test", 1, fakeFactory())
	if err != nil {
		t.Fatal(err)
	}
	appendTo(t, s, "cold", 7)
	appendTo(t, s, "hot", 8) // evicts "cold" (cap 1, single shard)
	st := s.Stats()
	if st.Spilled != 1 {
		t.Fatalf("Stats = %+v, want one spilled stream", st)
	}
	data, n, err := s.Export("cold")
	if err != nil || n != 1 {
		t.Fatalf("Export(cold): n=%d err=%v", n, err)
	}
	after := s.Stats()
	if after.Faults != st.Faults || after.Resident != st.Resident {
		t.Fatalf("Export faulted the stream in: %+v -> %+v", st, after)
	}
	want := &fakeStream{id: "cold", vals: []float64{7}}
	wantBlob, _ := want.MarshalBinary()
	if wantData := codec.EncodeSegment("test", "cold", wantBlob); !bytes.Equal(data, wantData) {
		t.Fatalf("Export(cold) = %x, want %x", data, wantData)
	}
	if _, _, err := s.Export("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Export(unknown) = %v", err)
	}
}

func TestSpillRejectsCorruptSegmentAndWrongMeta(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "mech-a", 1, fakeFactory())
	if err != nil {
		t.Fatal(err)
	}
	appendTo(t, s, "a", 1)
	appendTo(t, s, "b", 2) // spills "a"
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reopening under a different meta string is refused.
	if _, err := Open(dir, "mech-b", 1, fakeFactory()); err == nil {
		t.Fatal("reopen with mismatched meta succeeded")
	}
	// Corrupting a's segment file makes the fault-in fail loudly.
	des, err := os.ReadDir(filepath.Join(dir, SegmentDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		path := filepath.Join(dir, SegmentDir, de.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	gotErr := false
	for _, id := range []string{"a", "b"} {
		if err := s.Update(id, false, func(Stream) error { return nil }); err != nil {
			gotErr = true
		}
	}
	if !gotErr {
		t.Fatal("no error surfaced after corrupting every segment (at least the spilled stream must fail)")
	}
}

func TestSpillConcurrentChurnUnderCap(t *testing.T) {
	const (
		cap     = 4
		streams = 24
		workers = 8
		perW    = 60
	)
	s, err := Open(t.TempDir(), "test", cap, fakeFactory())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := fmt.Sprintf("c%d", (w+i*workers)%streams)
				err := s.Update(id, true, func(st Stream) error {
					st.(*fakeStream).append(1)
					return nil
				})
				if err == nil && i%7 == 3 {
					err = s.Update(id, false, func(Stream) error { return nil })
				}
				if err != nil {
					errc <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Resident > cap {
		t.Fatalf("resident %d exceeds cap %d after quiesce", st.Resident, cap)
	}
	if st.Streams != streams || st.Observations != workers*perW {
		t.Fatalf("Stats = %+v, want %d streams / %d observations", st, streams, workers*perW)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < streams; i++ {
		n, ok := s.Length(fmt.Sprintf("c%d", i))
		if !ok {
			t.Fatalf("stream c%d vanished", i)
		}
		total += n
	}
	if total != workers*perW {
		t.Fatalf("summed lengths %d, want %d", total, workers*perW)
	}
}

func TestSpillReadDoesNotDirtyOrRewrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "test", 1, fakeFactory())
	if err != nil {
		t.Fatal(err)
	}
	appendTo(t, s, "a", 1)
	appendTo(t, s, "b", 2) // spills dirty "a" (cap 1, single shard)
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Dirty != 0 {
		t.Fatalf("dirty after flush: %+v", st)
	}
	// Reading both streams cycles each through fault-in and (clean) eviction.
	for i := 0; i < 3; i++ {
		for _, id := range []string{"a", "b"} {
			if err := s.Read(id, func(st Stream) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.Dirty != 0 {
		t.Fatalf("reads dirtied streams: %+v", st)
	}
	if st.Faults == 0 || st.Evictions == 0 {
		t.Fatalf("read cycle did not churn residency: %+v", st)
	}
	// The flush after read-only churn rewrites nothing.
	fs, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Segments != 0 {
		t.Fatalf("flush after read-only traffic wrote %d segments, want 0", fs.Segments)
	}
	// Values are intact after all the clean eviction cycles.
	if got := valuesOf(t, s, "a"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("a = %v after clean-eviction churn", got)
	}
	// Read on an unknown stream is ErrNotFound, never a create.
	if err := s.Read("ghost", func(Stream) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read(unknown) = %v", err)
	}
	if s.Has("ghost") {
		t.Fatal("Read created a stream")
	}
}

func TestSpillDeleteRacesUpdate(t *testing.T) {
	s, err := Open(t.TempDir(), "test", 2, fakeFactory())
	if err != nil {
		t.Fatal(err)
	}
	const iters = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = s.Update("contended", true, func(st Stream) error {
				st.(*fakeStream).append(float64(i))
				return nil
			})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			s.Delete("contended")
		}
	}()
	wg.Wait()
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Whatever interleaving happened, the store must still be coherent: the
	// stream either exists with a readable state or does not exist at all.
	if s.Has("contended") {
		got := valuesOf(t, s, "contended")
		if n, _ := s.Length("contended"); n != len(got) {
			t.Fatalf("cached length %d != state length %d", n, len(got))
		}
	}
}

// TestFailedFirstAccessLeavesNoStream pins that a first access whose fn
// fails removes the entry it created, in both store modes and across a
// reopen, while a failure on an existing stream, or a failed first access a
// concurrent caller has pinned, leaves the stream in place.
func TestFailedFirstAccessLeavesNoStream(t *testing.T) {
	reject := errors.New("rejected")
	for _, mode := range []string{"memory", "dir"} {
		t.Run(mode, func(t *testing.T) {
			dir := ""
			if mode == "dir" {
				dir = t.TempDir()
			}
			open := func() *Store {
				s, err := Open(dir, "fake", 0, fakeFactory())
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			s := open()
			if err := s.Update("ghost", true, func(Stream) error { return reject }); !errors.Is(err, reject) {
				t.Fatalf("Update = %v, want the fn's error", err)
			}
			if s.Has("ghost") || len(s.Keys()) != 0 {
				t.Fatalf("rejected first access left a stream: Has=%v Keys=%v", s.Has("ghost"), s.Keys())
			}
			if st := s.Stats(); st.Streams != 0 || st.Resident != 0 || st.Dirty != 0 {
				t.Fatalf("Stats after a rejected first access = %+v", st)
			}
			// A failure on an existing stream leaves it as it was.
			appendTo(t, s, "a", 1)
			if err := s.Update("a", true, func(Stream) error { return reject }); !errors.Is(err, reject) {
				t.Fatalf("Update(a) = %v", err)
			}
			if n, ok := s.Length("a"); n != 1 || !ok {
				t.Fatalf("Length(a) after a failed update = %d, %v", n, ok)
			}
			// A concurrent caller that pinned the entry keeps it: the first
			// access fails while the second waits on the stream lock.
			entered, fail := make(chan struct{}), make(chan struct{})
			done := make(chan error, 1)
			go func() {
				done <- s.Update("b", true, func(Stream) error {
					close(entered)
					<-fail
					return reject
				})
			}()
			<-entered
			second := make(chan error, 1)
			go func() {
				second <- s.Update("b", true, func(st Stream) error {
					st.(*fakeStream).append(2)
					return nil
				})
			}()
			for !pinned(s, "b", 2) {
				runtime.Gosched()
			}
			close(fail)
			if err := <-done; !errors.Is(err, reject) {
				t.Fatalf("first access = %v", err)
			}
			if err := <-second; err != nil {
				t.Fatalf("second access = %v", err)
			}
			if n, ok := s.Length("b"); n != 1 || !ok {
				t.Fatalf("Length(b) = %d, %v, want the second access's row", n, ok)
			}
			if dir == "" {
				return
			}
			if _, err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := s.Update("ghost2", true, func(Stream) error { return reject }); !errors.Is(err, reject) {
				t.Fatalf("Update(ghost2) = %v", err)
			}
			if _, err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			r := open()
			if got := fmt.Sprint(r.Keys()); got != "[a b]" {
				t.Fatalf("Keys after reopen = %s, want [a b]", got)
			}
		})
	}
}

// pinned reports whether the stream's entry holds n pins.
func pinned(s *Store, id string, n int) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.table[id]
	return e != nil && e.pins == n
}

// TestStatsCountCreatingStreamAsNeither checks that a stream whose first
// access is still building it counts in Streams but as neither resident nor
// spilled, in both store modes: a memory-only store never reports a spilled
// stream, and a spilling store reports only the streams it spilled.
func TestStatsCountCreatingStreamAsNeither(t *testing.T) {
	for _, mode := range []string{"memory", "dir"} {
		t.Run(mode, func(t *testing.T) {
			dir, cap := "", 0
			if mode == "dir" {
				dir, cap = t.TempDir(), 1
			}
			entered, unblock := make(chan struct{}), make(chan struct{})
			s, err := Open(dir, "fake", cap, func(id string) (Stream, error) {
				if id == "new" {
					close(entered)
					<-unblock
				}
				return &fakeStream{id: id}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			appendTo(t, s, "a", 1)
			appendTo(t, s, "b", 2) // spills a when the cap is 1
			wantSpilled := 0
			if mode == "dir" {
				wantSpilled = 1
			}
			done := make(chan error, 1)
			go func() {
				done <- s.Update("new", true, func(st Stream) error {
					st.(*fakeStream).append(3)
					return nil
				})
			}()
			<-entered
			if st := s.Stats(); st.Streams != 3 || st.Resident != 2-wantSpilled || st.Spilled != wantSpilled {
				t.Fatalf("Stats while the factory blocks = %+v, want Streams 3, Resident %d, Spilled %d",
					st, 2-wantSpilled, wantSpilled)
			}
			close(unblock)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Streams != 3 || st.Resident+st.Spilled != 3 || (mode == "memory" && st.Spilled != 0) {
				t.Fatalf("Stats after the first access = %+v", st)
			}
		})
	}
}
