package privreg

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func testPoolOptions(seed int64) []Option {
	return []Option{
		WithEpsilonDelta(1, 1e-6),
		WithHorizon(64),
		WithConstraint(L2Constraint(4, 1)),
		WithSeed(seed),
		WithMaxIterations(20),
	}
}

// observe feeds one point to a pool stream through the flat ingest entry.
func observe(p *Pool, id string, x []float64, y float64) error {
	return p.ObserveFlat(id, len(x), x, []float64{y})
}

// observeBatch feeds nested rows to a pool stream, packed flat.
func observeBatch(p *Pool, id string, xs [][]float64, ys []float64) error {
	var flat []float64
	for _, x := range xs {
		flat = append(flat, x...)
	}
	return p.ObserveFlat(id, p.template.cfg.Constraint.Dim(), flat, ys)
}

// segment is one stream's state as ExportSegment returned it.
type segment struct {
	data []byte
	n    int64
}

// exportAll snapshots every live stream of p through ExportSegment, skipping
// streams dropped between listing and export. Each stream is locked only
// while its own state is exported, so a snapshot taken under load is
// per-stream consistent.
func exportAll(p *Pool) ([]segment, error) {
	var out []segment
	for _, id := range p.Streams() {
		data, n, err := p.ExportSegment(id)
		if errors.Is(err, ErrUnknownStream) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("exporting stream %q: %w", id, err)
		}
		out = append(out, segment{data, n})
	}
	return out, nil
}

// importAll installs a snapshot taken by exportAll into p.
func importAll(p *Pool, segs []segment) error {
	for _, s := range segs {
		if _, err := p.ImportSegment(s.data, s.n); err != nil {
			return err
		}
	}
	return nil
}

func TestPoolBasics(t *testing.T) {
	p, err := NewPool("gradient", testPoolOptions(7)...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("user-%d", i%3)
		x, y := syntheticPoint(i, 4)
		if err := observe(p, id, x, y); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Mechanism != "gradient" || st.Streams != 3 || st.Observations != 10 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.Privacy.Epsilon != 1 || st.Privacy.Delta != 1e-6 {
		t.Fatalf("Stats privacy = %+v", st.Privacy)
	}
	if got := p.Streams(); len(got) != 3 || got[0] != "user-0" {
		t.Fatalf("Streams = %v", got)
	}
	if n, _ := p.LenOK("user-0"); n == 0 {
		t.Fatal("user-0 should have observations")
	}
	theta, err := p.Estimate("user-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(theta) != 4 {
		t.Fatalf("estimate dimension %d", len(theta))
	}
	if _, err := p.Estimate("nobody"); err == nil {
		t.Fatal("estimate for an unknown stream should error")
	}
	if !p.Drop("user-1") || p.Drop("user-1") {
		t.Fatal("Drop semantics broken")
	}
	if p.Stats().Streams != 2 {
		t.Fatal("dropped stream still counted")
	}
}

func TestPoolRetainedBytesSurfacesSlowPathState(t *testing.T) {
	// The slow-path mechanisms report their retained sufficient statistics;
	// the store caches the size per stream and Stats aggregates it.
	p, err := NewPool("generic-erm", testPoolOptions(9)...)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().RetainedBytes; got != 0 {
		t.Fatalf("empty pool RetainedBytes = %d", got)
	}
	for i := 0; i < 6; i++ {
		x, y := syntheticPoint(i, 4)
		if err := observe(p, fmt.Sprintf("user-%d", i%2), x, y); err != nil {
			t.Fatal(err)
		}
	}
	one := p.Stats().RetainedBytes
	if one <= 0 {
		t.Fatalf("RetainedBytes = %d, want > 0 for generic-erm streams", one)
	}
	// On the sufficient-statistics path the size is per stream, not per point.
	for i := 0; i < 20; i++ {
		x, y := syntheticPoint(i, 4)
		if err := observe(p, "user-0", x, y); err != nil {
			t.Fatal(err)
		}
	}
	if after := p.Stats().RetainedBytes; after != one {
		t.Fatalf("quadratic RetainedBytes grew with stream length: %d -> %d", one, after)
	}
}

func TestPoolValidatesTemplateEagerly(t *testing.T) {
	if _, err := NewPool("gradient", WithHorizon(16)); err == nil {
		t.Fatal("missing constraint should fail at NewPool, not first use")
	}
	if _, err := NewPool("gradient", WithEpsilonDelta(-1, 1e-6), WithHorizon(16), WithConstraint(L2Constraint(3, 1))); err == nil {
		t.Fatal("invalid budget should fail at NewPool")
	}
	if _, err := NewPool("no-such", testPoolOptions(1)...); err == nil {
		t.Fatal("unknown mechanism should fail at NewPool")
	}
}

// TestPoolStreamsAreIndependentAndDeterministic verifies per-stream seed
// derivation: the same stream ID always reproduces the same outputs, distinct
// IDs draw different noise.
func TestPoolStreamsAreIndependentAndDeterministic(t *testing.T) {
	run := func(id string) []float64 {
		p, err := NewPool("gradient", testPoolOptions(7)...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			x, y := syntheticPoint(i, 4)
			if err := observe(p, id, x, y); err != nil {
				t.Fatal(err)
			}
		}
		theta, err := p.Estimate(id)
		if err != nil {
			t.Fatal(err)
		}
		return theta
	}
	a1, a2, b := run("alice"), run("alice"), run("bob")
	sameVector(t, "same stream id", a1, a2)
	differ := false
	for k := range a1 {
		if a1[k] != b[k] {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("distinct stream ids should draw independent noise")
	}
}

// TestPoolConcurrentMultiStream hammers a pool from many goroutines — mixed
// observes, batch observes, estimates, stats, drops — and then verifies the
// per-stream observation counts. Run under -race this is the acceptance test
// for the sharded locking design.
func TestPoolConcurrentMultiStream(t *testing.T) {
	p, err := NewPool("gradient", testPoolOptions(3)...)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers   = 16
		streams   = 23 // spread across shards; some IDs shared between workers
		perWorker = 24
	)
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("stream-%d", (w*perWorker+i)%streams)
				x, y := syntheticPoint(i, 4)
				var err error
				switch i % 4 {
				case 0, 1:
					err = observe(p, id, x, y)
				case 2:
					x2, y2 := syntheticPoint(i+1, 4)
					err = observeBatch(p, id, [][]float64{x, x2}, []float64{y, y2})
				case 3:
					err = observe(p, id, x, y)
					if err == nil {
						_, err = p.Estimate(id)
					}
					_ = p.Stats()
				}
				if err != nil {
					errc <- fmt.Errorf("worker %d step %d: %w", w, i, err)
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
	st := p.Stats()
	// 1/4 of the steps observe two points, the rest one.
	wantObs := int64(workers * perWorker * 5 / 4)
	if st.Observations != wantObs {
		t.Fatalf("Observations = %d, want %d", st.Observations, wantObs)
	}
	if st.Streams != streams {
		t.Fatalf("Streams = %d, want %d", st.Streams, streams)
	}
}

// TestPoolCheckpointDuringTraffic exports every stream's segment while writer
// goroutines are actively feeding the pool (run under -race in CI). Every
// snapshot must be internally consistent — each stream's state is some prefix
// of the points that stream was fed — and restorable: importing the segments
// into a fresh pool and re-feeding the observed prefix into a reference pool
// must produce bit-identical estimates.
func TestPoolCheckpointDuringTraffic(t *testing.T) {
	const (
		streams   = 8
		perStream = 32
		snapshots = 5
	)
	p, err := NewPool("gradient", testPoolOptions(11)...)
	if err != nil {
		t.Fatal(err)
	}
	streamID := func(s int) string { return fmt.Sprintf("live-%d", s) }

	var wg sync.WaitGroup
	errc := make(chan error, streams+snapshots)
	snaps := make([][]segment, snapshots)
	start := make(chan struct{})
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			<-start
			id := streamID(s)
			for i := 0; i < perStream; {
				x, y := syntheticPoint(i, 4)
				if i%3 == 2 && i+1 < perStream {
					x2, y2 := syntheticPoint(i+1, 4)
					if err := observeBatch(p, id, [][]float64{x, x2}, []float64{y, y2}); err != nil {
						errc <- err
						return
					}
					i += 2
				} else {
					if err := observe(p, id, x, y); err != nil {
						errc <- err
						return
					}
					i++
				}
			}
		}(s)
	}
	for c := 0; c < snapshots; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			snap, err := exportAll(p)
			if err != nil {
				errc <- err
				return
			}
			snaps[c] = snap
		}(c)
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for c, snap := range snaps {
		restored, err := NewPool("gradient", testPoolOptions(11)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := importAll(restored, snap); err != nil {
			t.Fatalf("snapshot %d not restorable: %v", c, err)
		}
		reference, err := NewPool("gradient", testPoolOptions(11)...)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range restored.Streams() {
			k, _ := restored.LenOK(id)
			if k < 0 || k > perStream {
				t.Fatalf("snapshot %d stream %s: Len %d outside fed range [0, %d]", c, id, k, perStream)
			}
			if k == 0 {
				// The checkpoint caught the stream between creation and its
				// first observation; nothing to compare.
				continue
			}
			// The snapshot must equal the state after exactly the first k
			// points of this stream's deterministic sequence: scalar and
			// batched ingestion are bit-identical, so a scalar replay is a
			// valid reference regardless of how the writer chunked them.
			for i := 0; i < k; i++ {
				x, y := syntheticPoint(i, 4)
				if err := observe(reference, id, x, y); err != nil {
					t.Fatal(err)
				}
			}
			want, err := reference.Estimate(id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Estimate(id)
			if err != nil {
				t.Fatalf("snapshot %d stream %s: estimate after restore: %v", c, id, err)
			}
			sameVector(t, fmt.Sprintf("snapshot %d stream %s (k=%d)", c, id, k), want, got)
		}
	}
}

// TestPoolDropRacesSameStreamWrites hammers one stream ID with concurrent
// Drop, Observe, ObserveBatch, Estimate, ExportSegment and (on the spill
// store) Flush calls — the drop-vs-write interleavings on a single stream
// that the multi-stream concurrency test never produces. Run under -race in
// CI. There is no single "right" winner for any interleaving; the invariants
// are: no data race, no error other than the documented sentinels, and a pool
// that is still coherent (exportable and importable) afterwards. Runs with and
// without a spill directory, since the spill store's eviction path adds
// interleavings of its own.
func TestPoolDropRacesSameStreamWrites(t *testing.T) {
	baseOpts := func(seed int64) []Option {
		return []Option{
			WithEpsilonDelta(1, 1e-6),
			WithHorizon(1 << 16), // far beyond what the test feeds: ErrStreamFull never fires
			WithConstraint(L2Constraint(4, 1)),
			WithSeed(seed),
			WithMaxIterations(10),
		}
	}
	run := func(t *testing.T, opts []Option) {
		p, err := NewPool("gradient", opts...)
		if err != nil {
			t.Fatal(err)
		}
		const (
			id    = "contended"
			iters = 150
		)
		var wg sync.WaitGroup
		errc := make(chan error, 5)
		wg.Add(5)
		go func() { // scalar writer
			defer wg.Done()
			for i := 0; i < iters; i++ {
				x, y := syntheticPoint(i, 4)
				if err := observe(p, id, x, y); err != nil {
					errc <- fmt.Errorf("observe: %w", err)
					return
				}
			}
		}()
		go func() { // batch writer
			defer wg.Done()
			for i := 0; i < iters; i++ {
				x1, y1 := syntheticPoint(i, 4)
				x2, y2 := syntheticPoint(i+1, 4)
				if err := observeBatch(p, id, [][]float64{x1, x2}, []float64{y1, y2}); err != nil {
					errc <- fmt.Errorf("batch: %w", err)
					return
				}
			}
		}()
		go func() { // reader
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := p.Estimate(id); err != nil && !errors.Is(err, ErrUnknownStream) {
					errc <- fmt.Errorf("estimate: %w", err)
					return
				}
				if n, ok := p.LenOK(id); ok && n < 0 {
					errc <- fmt.Errorf("LenOK returned negative length %d", n)
					return
				}
			}
		}()
		go func() { // checkpointer
			defer wg.Done()
			for i := 0; i < iters/10; i++ {
				if _, err := exportAll(p); err != nil {
					errc <- fmt.Errorf("export: %w", err)
					return
				}
				if _, err := p.Flush(); err != nil && !errors.Is(err, ErrNotPersistent) {
					errc <- fmt.Errorf("flush: %w", err)
					return
				}
			}
		}()
		go func() { // dropper
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p.Drop(id)
			}
		}()
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		// Whatever interleaving happened, the pool is still coherent: the
		// contended stream (if alive) reports a consistent length, and the
		// whole pool exports and imports.
		if p.Has(id) {
			if n, ok := p.LenOK(id); !ok || n < 0 {
				t.Fatalf("surviving stream reports (%d, %v)", n, ok)
			}
		}
		snap, err := exportAll(p)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewPool("gradient", baseOpts(21)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := importAll(fresh, snap); err != nil {
			t.Fatalf("post-race export not importable: %v", err)
		}
	}
	t.Run("resident", func(t *testing.T) { run(t, baseOpts(21)) })
	t.Run("spill", func(t *testing.T) {
		run(t, append(baseOpts(21), WithSpillDir(t.TempDir()), WithStoreCap(1)))
	})
}

// TestPoolUnknownStreamSentinel verifies the exported sentinel servers match
// on to translate "no such stream" into a 404.
func TestPoolUnknownStreamSentinel(t *testing.T) {
	p, err := NewPool("gradient", testPoolOptions(5)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Estimate("ghost"); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("Estimate(unknown) = %v, want ErrUnknownStream", err)
	}
	if p.Has("ghost") {
		t.Fatal("Has(unknown) = true")
	}
	x, y := syntheticPoint(0, 4)
	if err := observe(p, "ghost", x, y); err != nil {
		t.Fatal(err)
	}
	if !p.Has("ghost") {
		t.Fatal("Has(existing) = false")
	}
}

// TestPoolCheckpointRestore checkpoints a spill-backed pool mid-stream with
// Flush, reopens the same spill directory as a fresh pool built from the same
// template, continues both, and requires every stream's estimates to be
// bit-identical — the multi-stream version of the single-estimator
// determinism guarantee. Foreign, garbage and truncated segments are
// rejected without touching the pool.
func TestPoolCheckpointRestore(t *testing.T) {
	ids := []string{"alice", "bob", "carol"}
	dir := t.TempDir()
	opts := append(testPoolOptions(7), WithSpillDir(dir))
	orig, err := NewPool("gradient", opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		for _, id := range ids {
			x, y := syntheticPoint(i, 4)
			if err := observe(orig, id, x, y); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := orig.Flush(); err != nil {
		t.Fatal(err)
	}

	restored, err := NewPool("gradient", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Stats(); got.Streams != len(ids) || got.Observations != int64(12*len(ids)) {
		t.Fatalf("restored Stats = %+v", got)
	}

	for i := 12; i < 20; i++ {
		for _, id := range ids {
			x, y := syntheticPoint(i, 4)
			if err := observe(orig, id, x, y); err != nil {
				t.Fatal(err)
			}
			if err := observe(restored, id, x, y); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range ids {
		a, err := orig.Estimate(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Estimate(id)
		if err != nil {
			t.Fatal(err)
		}
		sameVector(t, "pool stream "+id, a, b)
	}

	seg, n, err := orig.ExportSegment("alice")
	if err != nil {
		t.Fatal(err)
	}
	// Mechanism mismatch is rejected.
	other, err := NewPool("nonprivate", WithHorizon(64), WithConstraint(L2Constraint(4, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.ImportSegment(seg, n); err == nil {
		t.Fatal("cross-mechanism segment import should be rejected")
	}
	// Garbage is rejected.
	if _, err := restored.ImportSegment([]byte("junk"), 1); err == nil {
		t.Fatal("garbage segment should be rejected")
	}

	// A truncated segment is rejected before any local state changes.
	before := make(map[string][]float64)
	for _, id := range ids {
		theta, err := restored.Estimate(id)
		if err != nil {
			t.Fatal(err)
		}
		before[id] = theta
	}
	if _, err := restored.ImportSegment(seg[:len(seg)-7], n); err == nil {
		t.Fatal("truncated segment should be rejected")
	}
	if got := restored.Stats(); got.Streams != len(ids) {
		t.Fatalf("failed import changed stream count: %+v", got)
	}
	for _, id := range ids {
		theta, err := restored.Estimate(id)
		if err != nil {
			t.Fatal(err)
		}
		sameVector(t, "post-failed-import "+id, before[id], theta)
	}
}
