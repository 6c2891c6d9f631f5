package privreg

import (
	"hash/fnv"
	"math"
	"testing"
)

// mechanismCase describes one registry mechanism with options suitable for
// fast deterministic tests.
type mechanismCase struct {
	name    string
	horizon int
	dim     int
	opts    func(seed int64) []Option
}

// testMechanismCases covers every registered mechanism.
func testMechanismCases() []mechanismCase {
	l2opts := func(dim, horizon int) func(seed int64) []Option {
		return func(seed int64) []Option {
			return []Option{
				WithEpsilonDelta(1, 1e-6),
				WithHorizon(horizon),
				WithConstraint(L2Constraint(dim, 1)),
				WithSeed(seed),
				WithWarmStart(true),
				WithMaxIterations(20),
			}
		}
	}
	sparseOpts := func(dim, horizon int, extra ...Option) func(seed int64) []Option {
		return func(seed int64) []Option {
			return append([]Option{
				WithEpsilonDelta(1, 1e-6),
				WithHorizon(horizon),
				WithConstraint(L1Constraint(dim, 1)),
				WithDomain(SparseDomain(dim, 3)),
				WithSeed(seed),
				WithMaxIterations(20),
			}, extra...)
		}
	}
	return []mechanismCase{
		{name: "gradient", horizon: 24, dim: 4, opts: l2opts(4, 24)},
		{name: "projected", horizon: 24, dim: 16, opts: sparseOpts(16, 24)},
		{name: "robust-projected", horizon: 24, dim: 16, opts: sparseOpts(16, 24, WithDomainOracle(func(x []float64) bool {
			nz := 0
			for _, v := range x {
				if v != 0 {
					nz++
				}
			}
			return nz <= 4
		}))},
		{name: "generic-erm", horizon: 24, dim: 3, opts: l2opts(3, 24)},
		{name: "naive-recompute", horizon: 12, dim: 3, opts: func(seed int64) []Option {
			return []Option{
				WithEpsilonDelta(1, 1e-6),
				WithHorizon(12),
				WithConstraint(L2Constraint(3, 1)),
				WithSeed(seed),
				WithMaxIterations(5),
			}
		}},
		{name: "nonprivate", horizon: 24, dim: 3, opts: l2opts(3, 24)},
	}
}

// syntheticPoint returns a deterministic covariate/response pair independent
// of any estimator state.
func syntheticPoint(i, dim int) ([]float64, float64) {
	x := make([]float64, dim)
	x[i%dim] = 0.8
	x[(i+1)%dim] = 0.3 * math.Sin(float64(i))
	y := 0.5*x[i%dim] - 0.2*x[(i+1)%dim]
	return x, y
}

func sameVector(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d != %d", label, len(a), len(b))
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("%s: coordinate %d differs: %v != %v (not bit-identical)", label, k, a[k], b[k])
		}
	}
}

// TestCheckpointRestoreBitIdentical is the acceptance test of the
// checkpoint/restore guarantee: for every mechanism, checkpoint mid-stream,
// restore into a freshly built estimator, continue both runs, and require the
// published estimates to be bit-identical to the uninterrupted run at several
// timesteps.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	for _, tc := range testMechanismCases() {
		t.Run(tc.name, func(t *testing.T) {
			ckptAt := tc.horizon * 2 / 5
			uninterrupted, err := New(tc.name, tc.opts(42)...)
			if err != nil {
				t.Fatal(err)
			}
			interrupted, err := New(tc.name, tc.opts(42)...)
			if err != nil {
				t.Fatal(err)
			}

			estimateSteps := map[int]bool{ckptAt + 1: true, tc.horizon * 3 / 4: true, tc.horizon: true}
			var restored Estimator
			feed := func(est Estimator, from, to int) {
				for i := from; i < to; i++ {
					x, y := syntheticPoint(i, tc.dim)
					if err := est.Observe(x, y); err != nil {
						t.Fatalf("Observe(%d): %v", i, err)
					}
				}
			}

			feed(uninterrupted, 0, ckptAt)
			feed(interrupted, 0, ckptAt)

			blob, err := interrupted.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			restored, err = New(tc.name, tc.opts(42)...)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			if restored.Len() != ckptAt {
				t.Fatalf("restored Len = %d, want %d", restored.Len(), ckptAt)
			}

			for i := ckptAt; i < tc.horizon; i++ {
				x, y := syntheticPoint(i, tc.dim)
				if err := uninterrupted.Observe(x, y); err != nil {
					t.Fatal(err)
				}
				if err := restored.Observe(x, y); err != nil {
					t.Fatal(err)
				}
				if estimateSteps[i+1] {
					a, err := uninterrupted.Estimate()
					if err != nil {
						t.Fatal(err)
					}
					b, err := restored.Estimate()
					if err != nil {
						t.Fatal(err)
					}
					sameVector(t, tc.name, a, b)
				}
			}
		})
	}
}

// TestCheckpointRestoreUnderDifferentSeed verifies that the checkpoint carries
// every randomness position: restoring into an estimator built with a
// *different* seed still continues bit-identically, because all live
// randomness (tree sources, solver sources, sketch spec) comes from the blob.
func TestCheckpointRestoreUnderDifferentSeed(t *testing.T) {
	for _, tc := range testMechanismCases() {
		t.Run(tc.name, func(t *testing.T) {
			ckptAt := tc.horizon / 2
			reference, err := New(tc.name, tc.opts(42)...)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < ckptAt; i++ {
				x, y := syntheticPoint(i, tc.dim)
				if err := reference.Observe(x, y); err != nil {
					t.Fatal(err)
				}
			}
			blob, err := reference.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := New(tc.name, tc.opts(977)...)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			for i := ckptAt; i < tc.horizon; i++ {
				x, y := syntheticPoint(i, tc.dim)
				if err := reference.Observe(x, y); err != nil {
					t.Fatal(err)
				}
				if err := restored.Observe(x, y); err != nil {
					t.Fatal(err)
				}
			}
			a, err := reference.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			b, err := restored.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			sameVector(t, tc.name, a, b)
		})
	}
}

// TestCheckpointMismatchRejected verifies the failure modes: wrong mechanism,
// wrong structural parameters, truncated/garbage blobs.
func TestCheckpointMismatchRejected(t *testing.T) {
	grad, err := New("gradient",
		WithEpsilonDelta(1, 1e-6), WithHorizon(16), WithConstraint(L2Constraint(4, 1)), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := grad.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	erm, err := New("generic-erm",
		WithEpsilonDelta(1, 1e-6), WithHorizon(16), WithConstraint(L2Constraint(4, 1)), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := erm.UnmarshalBinary(blob); err == nil {
		t.Fatal("cross-mechanism restore should be rejected")
	}

	otherDim, err := New("gradient",
		WithEpsilonDelta(1, 1e-6), WithHorizon(16), WithConstraint(L2Constraint(5, 1)), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := otherDim.UnmarshalBinary(blob); err == nil {
		t.Fatal("dimension mismatch should be rejected")
	}

	otherHorizon, err := New("gradient",
		WithEpsilonDelta(1, 1e-6), WithHorizon(32), WithConstraint(L2Constraint(4, 1)), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := otherHorizon.UnmarshalBinary(blob); err == nil {
		t.Fatal("horizon mismatch should be rejected")
	}

	fresh, err := New("gradient",
		WithEpsilonDelta(1, 1e-6), WithHorizon(16), WithConstraint(L2Constraint(4, 1)), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.UnmarshalBinary(blob[:len(blob)-5]); err == nil {
		t.Fatal("truncated blob should be rejected")
	}
	if err := fresh.UnmarshalBinary([]byte("not a checkpoint")); err == nil {
		t.Fatal("garbage blob should be rejected")
	}
}

// checkpointDigests pins the exact checkpoint bytes of every registry
// mechanism (and of gradient on the Hybrid substrate) after the fixed stream
// of TestCheckpointBytesGolden, as FNV-64a digests. A digest moves when the
// state a mechanism holds, the order it is written in, or any estimate or
// solver output folded into it changes by a single bit.
var checkpointDigests = map[string]uint64{
	"gradient":                 0x9f52f706ca33653c,
	"projected":                0xb57ba11fdda5dafe,
	"robust-projected":         0xd53efd9132fcbd33,
	"generic-erm":              0x75c763a8b1c16a87,
	"naive-recompute":          0x9010b8bde49dfcf7,
	"nonprivate":               0x24d657b2213ff5e3,
	"gradient/unknown-horizon": 0xdc6a0f151190390a,
	"multi-outcome":            0xa20fe2d25ed920f7,
}

// TestCheckpointBytesGolden feeds each mechanism a fixed seeded stream with
// interleaved estimates (so memos, warm-start iterates and pending solves are
// part of the state) and compares the digest of MarshalBinary to the pinned
// value.
func TestCheckpointBytesGolden(t *testing.T) {
	type golden struct {
		name, mech   string
		rows, dim, k int
		opts         []Option
	}
	var cases []golden
	for _, tc := range testMechanismCases() {
		cases = append(cases, golden{tc.name, tc.name, tc.horizon * 2 / 3, tc.dim, 1, tc.opts(7)})
	}
	gradient := testMechanismCases()[0]
	cases = append(cases,
		golden{"gradient/unknown-horizon", "gradient", 40, gradient.dim, 1, append(gradient.opts(7), WithUnknownHorizon())},
		golden{"multi-outcome", "multi-outcome", 16, 4, 3, multiOptions(7, 3)})
	covered := map[string]bool{}
	for _, gc := range cases {
		covered[gc.mech] = true
		t.Run(gc.name, func(t *testing.T) {
			est, err := New(gc.mech, gc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < gc.rows; i++ {
				x, ys := syntheticRow(i, gc.dim, gc.k)
				if err := est.(MultiEstimator).ObserveMulti(x, ys); err != nil {
					t.Fatal(err)
				}
				if i%5 == 4 {
					if _, err := est.Estimate(); err != nil {
						t.Fatal(err)
					}
				}
			}
			blob, err := est.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(blob)
			if got, want := h.Sum64(), checkpointDigests[gc.name]; got != want {
				t.Errorf("checkpoint digest %#x (%d bytes), pinned %#x", got, len(blob), want)
			}
		})
	}
	for _, m := range Mechanisms() {
		if !covered[m] {
			t.Errorf("mechanism %q has no pinned checkpoint digest", m)
		}
	}
}

// TestGradientCheckpointSizeFlatInHorizon pins the size of a gradient
// checkpoint at d = 32 and T = 2^19 after 8 rounds of a 16-row batch and a
// read: the exact statistics (one packed Gram and one vector) plus the two
// overlays' noise keys. With one partial sum per tree level it was 90,677
// bytes; it must stay at least 10× below that.
func TestGradientCheckpointSizeFlatInHorizon(t *testing.T) {
	const d, rounds, batch = 32, 8, 16
	est, err := New("gradient", WithEpsilonDelta(1, 1e-6), WithConstraint(L2Constraint(d, 1)),
		WithHorizon(1<<19), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		xs := make([][]float64, batch)
		ys := make([]float64, batch)
		for i := range xs {
			xs[i], ys[i] = syntheticPoint(r*batch+i, d)
		}
		if err := est.ObserveBatch(xs, ys); err != nil {
			t.Fatal(err)
		}
		if _, err := est.Estimate(); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := est.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const before = 90677
	if len(blob)*10 > before {
		t.Fatalf("gradient checkpoint is %d bytes, want at most a tenth of %d", len(blob), before)
	}
	t.Logf("gradient checkpoint at d=%d, T=2^19: %d bytes (%.1f× below %d)", d, len(blob), float64(before)/float64(len(blob)), before)
}
