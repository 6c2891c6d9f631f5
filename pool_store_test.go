package privreg

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// spillPoolOptions is testPoolOptions plus the bounded-memory store.
func spillPoolOptions(seed int64, dir string, cap int) []Option {
	return append(testPoolOptions(seed), WithSpillDir(dir), WithStoreCap(cap))
}

// TestSpillPoolRetainedBytesGradient pins the retained-state accounting of
// the gradient mechanism in a capped pool: only resident streams count, and
// per stream the size does not depend on the horizon, because the tree
// overlays keep no noise buffer and the exact sums are one Gram and one
// vector at any depth.
func TestSpillPoolRetainedBytesGradient(t *testing.T) {
	const dim, streams, cap = 8, 5, 3
	perStream := func(horizon int) int64 {
		opts := append(spillPoolOptions(3, t.TempDir(), cap),
			WithHorizon(horizon), WithConstraint(L2Constraint(dim, 1)))
		p, err := NewPool("gradient", opts...)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < streams; s++ {
			for i := 0; i < 4; i++ {
				x, y := syntheticPoint(i, dim)
				if err := observe(p, fmt.Sprintf("st-%d", s), x, y); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := p.Stats()
		if st.Resident != cap {
			t.Fatalf("Resident = %d, want the cap %d", st.Resident, cap)
		}
		if st.RetainedBytes <= 0 || st.RetainedBytes%cap != 0 {
			t.Fatalf("RetainedBytes = %d, want a positive multiple of %d resident streams", st.RetainedBytes, cap)
		}
		return st.RetainedBytes / cap
	}
	// Horizons 64 and 4096 give trees of 7 and 13 levels.
	small, large := perStream(64), perStream(4096)
	if large != small {
		t.Fatalf("per-stream RetainedBytes is %d at horizon 64 and %d at 4096, want equal", small, large)
	}
	if min := int64(8 * (dim*(dim+1)/2 + dim)); small < min {
		t.Fatalf("per-stream RetainedBytes %d below the exact Gram and b alone (%d)", small, min)
	}
}

// TestSpillPoolMatchesResidentPool is the acceptance property test of the
// stream-store engine: a pool capped at K resident estimators serving N ≫ K
// streams must stay within its residency bound and produce estimates
// bit-identical to an uncapped, fully-resident pool fed the same interleaved
// operation sequence — across evictions, fault-ins, drops, and full restarts
// from the on-disk manifest.
func TestSpillPoolMatchesResidentPool(t *testing.T) {
	const (
		streams     = 12
		cap         = 3
		rounds      = 3
		opsPerRound = 140
		horizon     = 64 // from testPoolOptions
	)
	dir := t.TempDir()
	capped, err := NewPool("gradient", spillPoolOptions(9, dir, cap)...)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewPool("gradient", testPoolOptions(9)...)
	if err != nil {
		t.Fatal(err)
	}

	// Deterministic op stream from a bare LCG, so failures replay exactly.
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	counts := make(map[string]int)

	for round := 0; round < rounds; round++ {
		for op := 0; op < opsPerRound; op++ {
			id := fmt.Sprintf("st-%02d", next(streams))
			switch next(6) {
			case 0, 1, 2: // scalar observe
				i := counts[id]
				if i+1 > horizon {
					continue
				}
				x, y := syntheticPoint(i, 4)
				if err := observe(capped, id, x, y); err != nil {
					t.Fatalf("capped observe %s[%d]: %v", id, i, err)
				}
				if err := observe(ref, id, x, y); err != nil {
					t.Fatalf("ref observe %s[%d]: %v", id, i, err)
				}
				counts[id]++
			case 3: // batch observe
				i := counts[id]
				if i+3 > horizon {
					continue
				}
				var xs [][]float64
				var ys []float64
				for k := 0; k < 3; k++ {
					x, y := syntheticPoint(i+k, 4)
					xs = append(xs, x)
					ys = append(ys, y)
				}
				if err := observeBatch(capped, id, xs, ys); err != nil {
					t.Fatalf("capped batch %s[%d]: %v", id, i, err)
				}
				if err := observeBatch(ref, id, xs, ys); err != nil {
					t.Fatalf("ref batch %s[%d]: %v", id, i, err)
				}
				counts[id] += 3
			case 4: // estimate (forces fault-in of spilled streams)
				a, aerr := capped.Estimate(id)
				b, berr := ref.Estimate(id)
				if (aerr == nil) != (berr == nil) {
					t.Fatalf("estimate %s: capped err=%v, ref err=%v", id, aerr, berr)
				}
				if aerr != nil {
					if !errors.Is(aerr, ErrUnknownStream) || !errors.Is(berr, ErrUnknownStream) {
						t.Fatalf("estimate %s: unexpected errors %v / %v", id, aerr, berr)
					}
					continue
				}
				sameVector(t, "mid-run estimate "+id, b, a)
			case 5: // drop
				if da, db := capped.Drop(id), ref.Drop(id); da != db {
					t.Fatalf("drop %s: capped=%v ref=%v", id, da, db)
				}
				counts[id] = 0
			}
			if st := capped.Stats(); st.Resident > cap {
				t.Fatalf("round %d op %d: resident %d exceeds cap %d", round, op, st.Resident, cap)
			}
			if na, aok := capped.LenOK(id); true {
				if nb, bok := ref.LenOK(id); na != nb || aok != bok {
					t.Fatalf("LenOK %s: capped (%d,%v), ref (%d,%v)", id, na, aok, nb, bok)
				}
			}
		}
		// Restart: flush the capped pool's dirty segments + manifest, then
		// reopen a brand-new pool over the same directory. The reference pool
		// lives on uninterrupted — the restart must be invisible.
		if _, err := capped.Flush(); err != nil {
			t.Fatalf("round %d flush: %v", round, err)
		}
		capped, err = NewPool("gradient", spillPoolOptions(9, dir, cap)...)
		if err != nil {
			t.Fatalf("round %d reopen: %v", round, err)
		}
		st := capped.Stats()
		if st.Streams != ref.Stats().Streams {
			t.Fatalf("round %d reopen: %d streams, ref has %d", round, st.Streams, ref.Stats().Streams)
		}
		if st.Resident != 0 {
			t.Fatalf("round %d reopen: %d resident streams, want lazy restore (0)", round, st.Resident)
		}
	}

	// Final audit: identical stream sets, lengths, and bit-identical estimates.
	gotIDs, wantIDs := capped.Streams(), ref.Streams()
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("stream sets differ: capped %v, ref %v", gotIDs, wantIDs)
	}
	for i, id := range wantIDs {
		if gotIDs[i] != id {
			t.Fatalf("stream sets differ: capped %v, ref %v", gotIDs, wantIDs)
		}
		gotLen, _ := capped.LenOK(id)
		wantLen, _ := ref.LenOK(id)
		if gotLen != wantLen {
			t.Fatalf("stream %s: capped len %d, ref len %d", id, gotLen, wantLen)
		}
		if wantLen == 0 {
			continue
		}
		want, err := ref.Estimate(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := capped.Estimate(id)
		if err != nil {
			t.Fatal(err)
		}
		sameVector(t, "final estimate "+id, want, got)
	}
	st := capped.Stats()
	if st.FaultIns == 0 || ref.Stats().Evictions != 0 {
		t.Fatalf("the capped pool should have faulted streams in (stats %+v)", st)
	}
}

// TestFlushRewritesOnlyTouchedSegments verifies the O(M) incremental
// checkpoint property: after a full flush of N streams, touching M streams
// and flushing again rewrites exactly M segment files — counted both from
// FlushStats and from the segment directory itself.
func TestFlushRewritesOnlyTouchedSegments(t *testing.T) {
	const n = 24
	dir := t.TempDir()
	// Unbounded residency (cap 0): the disk layer is pure checkpointing here,
	// so segment-write counts are exact — no eviction interleaves. The capped
	// variant of the same property is covered by the store-level flush test.
	p, err := NewPool("gradient", spillPoolOptions(5, dir, 0)...)
	if err != nil {
		t.Fatal(err)
	}
	id := func(i int) string { return fmt.Sprintf("seg-%02d", i) }
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			x, y := syntheticPoint(j, 4)
			if err := observe(p, id(i), x, y); err != nil {
				t.Fatal(err)
			}
		}
	}
	fs, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Streams != n || fs.ManifestBytes == 0 {
		t.Fatalf("first flush = %+v, want manifest over %d streams", fs, n)
	}
	if st := p.Stats(); st.DirtyStreams != 0 {
		t.Fatalf("dirty after flush: %+v", st)
	}

	segSet := func() map[string]bool {
		des, err := os.ReadDir(filepath.Join(dir, "segments"))
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]bool, len(des))
		for _, de := range des {
			out[de.Name()] = true
		}
		return out
	}
	before := segSet()
	if len(before) != n {
		t.Fatalf("%d segment files after full flush, want %d", len(before), n)
	}

	touched := []int{3, 11, 19}
	for _, i := range touched {
		x, y := syntheticPoint(4, 4)
		if err := observe(p, id(i), x, y); err != nil {
			t.Fatal(err)
		}
	}
	fs, err = p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Segments != len(touched) {
		t.Fatalf("incremental flush rewrote %d segments, want %d (O(touched), not O(%d))", fs.Segments, len(touched), n)
	}
	after := segSet()
	if len(after) != n {
		t.Fatalf("%d segment files after incremental flush, want %d", len(after), n)
	}
	fresh := 0
	for name := range after {
		if !before[name] {
			fresh++
		}
	}
	if fresh != len(touched) {
		t.Fatalf("%d new segment files on disk, want %d", fresh, len(touched))
	}

	// A reopened pool restores lazily from the manifest and matches the live
	// pool bit-identically on both touched and untouched streams.
	q, err := NewPool("gradient", spillPoolOptions(5, dir, 8)...)
	if err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Streams != n || st.Resident != 0 {
		t.Fatalf("reopened stats = %+v, want %d lazy streams", st, n)
	}
	for _, i := range []int{3, 19, 0, 23} {
		want, err := p.Estimate(id(i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Estimate(id(i))
		if err != nil {
			t.Fatal(err)
		}
		sameVector(t, "reopened "+id(i), want, got)
	}
}

// TestSpillPoolWarmStartEstimates covers the one case where Estimate is a
// real mutation: with WithWarmStart the optimizer's start point (the cached
// previous estimate) feeds future outputs, so estimate-touched state must
// survive spill/fault-in and restarts for the capped pool to stay
// bit-identical to a resident one.
func TestSpillPoolWarmStartEstimates(t *testing.T) {
	warmOpts := func(extra ...Option) []Option {
		return append([]Option{
			WithEpsilonDelta(1, 1e-6),
			WithHorizon(64),
			WithConstraint(L2Constraint(4, 1)),
			WithSeed(17),
			WithMaxIterations(20),
			WithWarmStart(true),
		}, extra...)
	}
	dir := t.TempDir()
	capped, err := NewPool("gradient", warmOpts(WithSpillDir(dir), WithStoreCap(1))...)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewPool("gradient", warmOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"warm-a", "warm-b", "warm-c"}
	for round := 0; round < 4; round++ {
		for i, id := range ids {
			x, y := syntheticPoint(round*4+i, 4)
			if err := observe(capped, id, x, y); err != nil {
				t.Fatal(err)
			}
			if err := observe(ref, id, x, y); err != nil {
				t.Fatal(err)
			}
			// Interleaved estimates: each one seeds the next warm start, and
			// with cap 1 every access of a different stream evicts the last.
			a, err := capped.Estimate(id)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ref.Estimate(id)
			if err != nil {
				t.Fatal(err)
			}
			sameVector(t, fmt.Sprintf("warm round %d %s", round, id), b, a)
		}
		if round == 1 {
			// Mid-run restart: warm-start state must be in the segments.
			if _, err := capped.Flush(); err != nil {
				t.Fatal(err)
			}
			capped, err = NewPool("gradient", warmOpts(WithSpillDir(dir), WithStoreCap(1))...)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPoolLenOK pins the Len/LenOK contract: LenOK distinguishes an unknown
// stream (0, false) from an empty or short one, while Len stays the
// 0-for-unknown shim.
func TestPoolLenOK(t *testing.T) {
	p, err := NewPool("gradient", testPoolOptions(3)...)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := p.LenOK("ghost"); n != 0 || ok {
		t.Fatalf("LenOK(unknown) = (%d, %v), want (0, false)", n, ok)
	}
	x, y := syntheticPoint(0, 4)
	if err := observe(p, "a", x, y); err != nil {
		t.Fatal(err)
	}
	if n, ok := p.LenOK("a"); n != 1 || !ok {
		t.Fatalf("LenOK(existing) = (%d, %v), want (1, true)", n, ok)
	}
	p.Drop("a")
	if _, ok := p.LenOK("a"); ok {
		t.Fatal("LenOK(dropped) reported existing")
	}
}

// TestPoolStoreOptionValidation pins the option plumbing: the store options
// are pool-scoped and internally consistent.
func TestPoolStoreOptionValidation(t *testing.T) {
	// A resident cap without a spill target would discard private state.
	if _, err := NewPool("gradient", append(testPoolOptions(1), WithStoreCap(4))...); err == nil {
		t.Fatal("WithStoreCap without WithSpillDir accepted")
	}
	if _, err := NewPool("gradient", append(testPoolOptions(1), WithStoreCap(-1), WithSpillDir(t.TempDir()))...); err == nil {
		t.Fatal("negative store cap accepted")
	}
	if _, err := NewPool("gradient", append(testPoolOptions(1), WithSpillDir(""))...); err == nil {
		t.Fatal("empty spill dir accepted")
	}
	// Single estimators have no stream store.
	if _, err := New("gradient", WithEpsilonDelta(1, 1e-6), WithHorizon(16),
		WithConstraint(L2Constraint(4, 1)), WithSpillDir(t.TempDir())); err == nil {
		t.Fatal("New accepted the pool-scoped WithSpillDir")
	}
	if _, err := New("gradient", WithEpsilonDelta(1, 1e-6), WithHorizon(16),
		WithConstraint(L2Constraint(4, 1)), WithStoreCap(2)); err == nil {
		t.Fatal("New accepted the pool-scoped WithStoreCap")
	}
	// Flush without a spill dir is ErrNotPersistent.
	p, err := NewPool("gradient", testPoolOptions(1)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Flush(); !errors.Is(err, ErrNotPersistent) {
		t.Fatalf("resident Flush = %v, want ErrNotPersistent", err)
	}
	// A spill directory is bound to its mechanism.
	dir := t.TempDir()
	sp, err := NewPool("gradient", spillPoolOptions(1, dir, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	x, y := syntheticPoint(0, 4)
	if err := observe(sp, "a", x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPool("nonprivate", WithHorizon(64), WithConstraint(L2Constraint(4, 1)), WithSpillDir(dir)); err == nil {
		t.Fatal("reopening a gradient spill dir as nonprivate accepted")
	}
}

// TestMemoryPoolStatsAndImports pins what a pool without WithSpillDir
// reports and touches after observes, an import and a drop: every stream
// resident and dirty (a stream whose first batch was rejected included),
// nothing spilled, evicted or faulted in, and 64 shards. Flush is refused, a
// corrupt or foreign segment changes nothing, and no file is created.
func TestMemoryPoolStatsAndImports(t *testing.T) {
	listCwd := func() []string {
		t.Helper()
		dirents, err := os.ReadDir(".")
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range dirents {
			names = append(names, de.Name())
		}
		return names
	}
	filesBefore := listCwd()

	p, err := NewPool("gradient", testPoolOptions(4)...)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewPool("gradient", testPoolOptions(4)...)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		x, y := syntheticPoint(j, 4)
		for _, id := range []string{"a", "b"} {
			if err := observe(p, id, x, y); err != nil {
				t.Fatal(err)
			}
		}
		if err := observe(src, "c", x, y); err != nil {
			t.Fatal(err)
		}
	}
	// A first batch past the horizon is rejected and leaves no stream.
	xs := make([]float64, 65*4)
	if err := p.ObserveFlat("full", 4, xs, make([]float64, 65)); !errors.Is(err, ErrStreamFull) {
		t.Fatalf("oversized first batch = %v, want ErrStreamFull", err)
	}
	data, n, err := src.ExportSegment("c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ImportSegment(data, n); err != nil {
		t.Fatal(err)
	}
	if !p.Drop("b") {
		t.Fatal("Drop(b) found no stream")
	}

	want := p.Stats()
	want.Streams, want.Observations, want.Resident, want.DirtyStreams = 2, 10, 2, 2
	want.Spilled, want.Evictions, want.FaultIns, want.Shards = 0, 0, 0, 64
	if got := p.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
	if _, err := p.Flush(); !errors.Is(err, ErrNotPersistent) {
		t.Fatalf("Flush = %v, want ErrNotPersistent", err)
	}

	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x10
	if _, err := p.ImportSegment(corrupt, n); err == nil {
		t.Fatal("corrupt segment imported")
	}
	foreign, err := NewPool("nonprivate", WithHorizon(64), WithConstraint(L2Constraint(4, 1)))
	if err != nil {
		t.Fatal(err)
	}
	x, y := syntheticPoint(0, 4)
	if err := observe(foreign, "a", x, y); err != nil {
		t.Fatal(err)
	}
	fdata, fn, err := foreign.ExportSegment("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ImportSegment(fdata, fn); err == nil {
		t.Fatal("foreign-mechanism segment imported")
	}
	if got := p.Stats(); got != want {
		t.Fatalf("Stats after rejected imports = %+v, want %+v", got, want)
	}
	if n, ok := p.LenOK("a"); n != 5 || !ok {
		t.Fatalf("LenOK(a) after rejected imports = (%d, %v), want (5, true)", n, ok)
	}
	if got := fmt.Sprint(p.Streams()); got != "[a c]" {
		t.Fatalf("Streams = %s", got)
	}
	if got := fmt.Sprint(listCwd()); got != fmt.Sprint(filesBefore) {
		t.Fatalf("working directory changed from %s to %s", fmt.Sprint(filesBefore), got)
	}
}

// TestPoolStatsShards checks that PoolStats.Shards reports the store's own
// shard count: a residency cap below 64 splits exactly over that many shards.
func TestPoolStatsShards(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
		want int
	}{
		{"no-dir", testPoolOptions(1), 64},
		{"dir-uncapped", spillPoolOptions(1, t.TempDir(), 0), 64},
		{"dir-cap-8", spillPoolOptions(1, t.TempDir(), 8), 8},
	} {
		p, err := NewPool("gradient", tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Stats().Shards; got != tc.want {
			t.Errorf("%s: Shards = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSpillPoolExportMatchesResident verifies that the exported segments of
// a spill-backed pool equal those of a pool without a spill directory
// (spilled streams are copied from their segment files without fault-in) and
// import into a spill-backed pool.
func TestSpillPoolExportMatchesResident(t *testing.T) {
	dir := t.TempDir()
	capped, err := NewPool("gradient", spillPoolOptions(7, dir, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewPool("gradient", testPoolOptions(7)...)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 6; s++ {
		id := fmt.Sprintf("mono-%d", s)
		for j := 0; j < 8; j++ {
			x, y := syntheticPoint(j, 4)
			if err := observe(capped, id, x, y); err != nil {
				t.Fatal(err)
			}
			if err := observe(ref, id, x, y); err != nil {
				t.Fatal(err)
			}
		}
	}
	faultsBefore := capped.Stats().FaultIns
	got, err := exportAll(capped)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Stats().FaultIns != faultsBefore {
		t.Fatal("export faulted spilled streams in")
	}
	want, err := exportAll(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("exported %d streams from the capped pool, %d from the resident one", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].data, want[i].data) || got[i].n != want[i].n {
			t.Fatalf("segment %d differs between the capped and the resident pool", i)
		}
	}
	// The segments import into a spill-backed pool too.
	restored, err := NewPool("gradient", spillPoolOptions(7, t.TempDir(), 2)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := importAll(restored, got); err != nil {
		t.Fatal(err)
	}
	if st := restored.Stats(); st.Streams != 6 || st.Resident > 2 {
		t.Fatalf("restored stats = %+v", st)
	}
	a, err := ref.Estimate("mono-3")
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Estimate("mono-3")
	if err != nil {
		t.Fatal(err)
	}
	sameVector(t, "restored mono-3", a, b)
}
