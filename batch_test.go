package privreg

import (
	"errors"
	"math"
	"testing"

	"privreg/internal/core"
)

// TestObserveBatchMatchesScalarLoop is the acceptance test of batch
// ingestion: for every mechanism, feeding the stream through ObserveBatch in
// uneven chunks produces exactly the state a scalar Observe loop produces —
// same counts, bit-identical estimates.
func TestObserveBatchMatchesScalarLoop(t *testing.T) {
	for _, tc := range testMechanismCases() {
		t.Run(tc.name, func(t *testing.T) {
			scalar, err := New(tc.name, tc.opts(42)...)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := New(tc.name, tc.opts(42)...)
			if err != nil {
				t.Fatal(err)
			}

			xs := make([][]float64, tc.horizon)
			ys := make([]float64, tc.horizon)
			for i := range xs {
				xs[i], ys[i] = syntheticPoint(i, tc.dim)
			}

			for i := 0; i < tc.horizon; i++ {
				if err := scalar.Observe(xs[i], ys[i]); err != nil {
					t.Fatal(err)
				}
			}
			// Uneven chunk sizes, including a singleton and an empty batch.
			for lo := 0; lo < tc.horizon; {
				hi := lo + 1 + (lo % 4)
				if hi > tc.horizon {
					hi = tc.horizon
				}
				if err := batched.ObserveBatch(xs[lo:hi], ys[lo:hi]); err != nil {
					t.Fatalf("ObserveBatch[%d:%d]: %v", lo, hi, err)
				}
				lo = hi
			}
			if err := batched.ObserveBatch(nil, nil); err != nil {
				t.Fatalf("empty batch: %v", err)
			}

			if scalar.Len() != batched.Len() {
				t.Fatalf("Len: scalar %d != batched %d", scalar.Len(), batched.Len())
			}
			a, err := scalar.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			b, err := batched.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			sameVector(t, tc.name, a, b)
		})
	}
}

// TestObserveBatchValidation covers the batch-boundary error contract:
// mismatched lengths, dimension mismatches, and all-or-nothing horizon
// overflow.
func TestObserveBatchValidation(t *testing.T) {
	newGrad := func() Estimator {
		est, err := New("gradient",
			WithEpsilonDelta(1, 1e-6), WithHorizon(8), WithConstraint(L2Constraint(3, 1)), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		return est
	}

	est := newGrad()
	if err := est.ObserveBatch([][]float64{{1, 0, 0}}, []float64{0.1, 0.2}); err == nil {
		t.Fatal("mismatched batch lengths should be rejected")
	}

	est = newGrad()
	if err := est.ObserveBatch([][]float64{{1, 0}}, []float64{0.1}); err == nil {
		t.Fatal("dimension mismatch should be rejected")
	}
	if est.Len() != 0 {
		t.Fatalf("failed batch must not consume elements, Len = %d", est.Len())
	}

	// A batch overrunning the horizon is rejected whole, before any element is
	// consumed.
	est = newGrad()
	xs := make([][]float64, 9)
	ys := make([]float64, 9)
	for i := range xs {
		xs[i], ys[i] = syntheticPoint(i, 3)
	}
	err := est.ObserveBatch(xs, ys)
	if !errors.Is(err, core.ErrStreamFull) {
		t.Fatalf("oversized batch error = %v, want ErrStreamFull", err)
	}
	if est.Len() != 0 {
		t.Fatalf("oversized batch must be all-or-nothing, Len = %d", est.Len())
	}
	// The same batch minus one element fits exactly.
	if err := est.ObserveBatch(xs[:8], ys[:8]); err != nil {
		t.Fatal(err)
	}
	if est.Len() != 8 {
		t.Fatalf("Len = %d, want 8", est.Len())
	}

	// The robust mechanism validates dimensions up front too: a bad element in
	// the middle of a batch must not leave a valid prefix ingested.
	robust, err := New("robust-projected",
		WithEpsilonDelta(1, 1e-6),
		WithHorizon(8),
		WithConstraint(L1Constraint(8, 1)),
		WithDomain(SparseDomain(8, 2)),
		WithDomainOracle(func([]float64) bool { return true }),
		WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	good, goodY := syntheticPoint(0, 8)
	if err := robust.ObserveBatch([][]float64{good, {1, 0}}, []float64{goodY, 0.1}); err == nil {
		t.Fatal("robust batch with a mid-batch dimension mismatch should be rejected")
	}
	if robust.Len() != 0 {
		t.Fatalf("robust failed batch must be all-or-nothing, Len = %d", robust.Len())
	}
}

// TestShortRowRejectedByEveryMechanism pins the row contract at the adapter
// boundary for every registered mechanism: a covariate shorter than the
// constraint's dimension, or a row carrying a NaN or ±Inf, is an error on
// every ingest entry point, never a panic, and it consumes nothing — the
// stream's length is unchanged, no pool stream is created, and the next
// well-formed row lands as row 1 with a finite estimate.
func TestShortRowRejectedByEveryMechanism(t *testing.T) {
	const d = 4
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		name string
		x    []float64
		y    float64
	}{
		{"short", []float64{0.5, 0.1}, 0.1},
		{"NaN covariate", []float64{nan, 0, 0, 0}, 0.1},
		{"+Inf covariate", []float64{inf, 0, 0, 0}, 0.1},
		{"-Inf covariate", []float64{0, 0, 0, -inf}, 0.1},
		{"NaN response", []float64{0.5, 0, 0, 0}, nan},
		{"+Inf response", []float64{0.5, 0, 0, 0}, inf},
		{"-Inf response", []float64{0.5, 0, 0, 0}, -inf},
	}
	for _, name := range Mechanisms() {
		t.Run(name, func(t *testing.T) {
			info, err := Describe(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := []Option{WithEpsilonDelta(1, 1e-6), WithHorizon(16), WithConstraint(L2Constraint(d, 1)), WithSeed(3)}
			if info.NeedsDomain {
				opts = append(opts, WithDomain(UnitBallDomain(d)))
			}
			if info.NeedsOracle {
				opts = append(opts, WithDomainOracle(func([]float64) bool { return true }))
			}
			est, err := New(name, opts...)
			if err != nil {
				t.Fatal(err)
			}
			pool, err := NewPool(name, opts...)
			if err != nil {
				t.Fatal(err)
			}
			me := est.(MultiEstimator)
			for _, row := range bad {
				x, y := row.x, []float64{row.y}
				entries := []struct {
					name string
					call func() error
				}{
					{"Observe", func() error { return est.Observe(x, y[0]) }},
					{"ObserveBatch", func() error { return est.ObserveBatch([][]float64{x}, y) }},
					{"ObserveFlat", func() error { return est.(FlatObserver).ObserveFlat(len(x), x, y) }},
					{"ObserveMultiFlat", func() error { return me.ObserveMultiFlat(len(x), x, y) }},
					{"Pool.ObserveFlat", func() error { return pool.ObserveFlat("s", len(x), x, y) }},
				}
				for _, e := range entries {
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("%s panicked on a %s row: %v", e.name, row.name, r)
							}
						}()
						if err := e.call(); err == nil {
							t.Fatalf("%s accepted a %s row (%v, %v) into a dimension-%d estimator", e.name, row.name, x, y, d)
						}
					}()
					if est.Len() != 0 {
						t.Fatalf("%s consumed a rejected %s row: Len = %d", e.name, row.name, est.Len())
					}
					if n, ok := pool.LenOK("s"); n != 0 || ok {
						t.Fatalf("%s left pool stream at (%d, %v) after a %s row, want (0, false)", e.name, n, ok, row.name)
					}
				}
			}
			x, y := syntheticPoint(0, d)
			if err := est.Observe(x, y); err != nil || est.Len() != 1 {
				t.Fatalf("well-formed row after rejections: err=%v Len=%d", err, est.Len())
			}
			theta, err := est.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range theta {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("estimate coordinate %d is %v after the rejected rows", i, v)
				}
			}
		})
	}
}
