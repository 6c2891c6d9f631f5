package privreg

import (
	"strings"
	"testing"
)

// TestObserveFlatMatchesObserveBatch is the acceptance test of the zero-copy
// ingest path: for every mechanism, feeding rows through ObserveFlat from a
// packed row-major buffer produces exactly the state ObserveBatch produces —
// same counts, bit-identical estimates. It also checks the estimator does not
// retain the flat buffer: scribbling over it after the call must not change
// the estimate.
func TestObserveFlatMatchesObserveBatch(t *testing.T) {
	for _, tc := range testMechanismCases() {
		t.Run(tc.name, func(t *testing.T) {
			batched, err := New(tc.name, tc.opts(42)...)
			if err != nil {
				t.Fatal(err)
			}
			flat, err := New(tc.name, tc.opts(42)...)
			if err != nil {
				t.Fatal(err)
			}
			fo, ok := flat.(FlatObserver)
			if !ok {
				t.Fatalf("estimator %T does not implement FlatObserver", flat)
			}

			xs := make([][]float64, tc.horizon)
			ys := make([]float64, tc.horizon)
			for i := range xs {
				xs[i], ys[i] = syntheticPoint(i, tc.dim)
			}

			// Same uneven chunking on both sides so batch boundaries line up.
			for lo := 0; lo < tc.horizon; {
				hi := lo + 1 + (lo % 4)
				if hi > tc.horizon {
					hi = tc.horizon
				}
				if err := batched.ObserveBatch(xs[lo:hi], ys[lo:hi]); err != nil {
					t.Fatalf("ObserveBatch[%d:%d]: %v", lo, hi, err)
				}
				buf := make([]float64, 0, (hi-lo)*tc.dim)
				for i := lo; i < hi; i++ {
					buf = append(buf, xs[i]...)
				}
				if err := fo.ObserveFlat(tc.dim, buf, ys[lo:hi]); err != nil {
					t.Fatalf("ObserveFlat[%d:%d]: %v", lo, hi, err)
				}
				// The estimator must have copied what it needs: poisoning the
				// transport buffer now must not perturb the stream's state.
				for i := range buf {
					buf[i] = 1e30
				}
				lo = hi
			}
			if err := fo.ObserveFlat(tc.dim, nil, nil); err != nil {
				t.Fatalf("empty flat batch: %v", err)
			}

			if batched.Len() != flat.Len() {
				t.Fatalf("Len: batched %d != flat %d", batched.Len(), flat.Len())
			}
			a, err := batched.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			b, err := flat.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			sameVector(t, "estimate", a, b)
		})
	}
}

// TestObserveFlatValidation checks shape errors surface before any state
// changes, and that a Pool routes ObserveFlat through the same stream as
// ObserveBatch.
func TestObserveFlatValidation(t *testing.T) {
	est, err := New("nonprivate",
		WithEpsilonDelta(1, 1e-6), WithHorizon(8),
		WithConstraint(L2Constraint(3, 1)), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	fo := est.(FlatObserver)
	if err := fo.ObserveFlat(0, nil, nil); err == nil || !strings.Contains(err.Error(), "dimension") {
		t.Fatalf("zero dim: %v", err)
	}
	if err := fo.ObserveFlat(3, make([]float64, 5), make([]float64, 2)); err == nil {
		t.Fatal("ragged flat buffer accepted")
	}
	if est.Len() != 0 {
		t.Fatalf("failed batches mutated state: len %d", est.Len())
	}
}

// TestPoolObserveFlat checks the Pool-level entry point: flat and nested
// ingestion into pools built from the same template converge to bit-identical
// per-stream estimates.
func TestPoolObserveFlat(t *testing.T) {
	newPool := func() *Pool {
		p, err := NewPool("gradient",
			WithEpsilonDelta(1, 1e-6), WithHorizon(16),
			WithConstraint(L2Constraint(4, 1)), WithSeed(7),
			WithMaxIterations(10))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := newPool(), newPool()

	xs := make([][]float64, 12)
	ys := make([]float64, 12)
	flatBuf := make([]float64, 0, 12*4)
	for i := range xs {
		xs[i], ys[i] = syntheticPoint(i, 4)
		flatBuf = append(flatBuf, xs[i]...)
	}
	if err := observeBatch(a, "s", xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := b.ObserveFlat("s", 4, flatBuf, ys); err != nil {
		t.Fatal(err)
	}
	ea, err := a.Estimate("s")
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Estimate("s")
	if err != nil {
		t.Fatal(err)
	}
	sameVector(t, "pool estimate", ea, eb)

	if err := b.ObserveFlat("s", 4, make([]float64, 7), make([]float64, 2)); err == nil {
		t.Fatal("pool accepted ragged flat buffer")
	}
	if err := b.ObserveFlat("s", -1, nil, nil); err == nil {
		t.Fatal("pool accepted negative dim")
	}
}
