package privreg

import (
	"fmt"
	"testing"
)

func multiOptions(seed int64, k int) []Option {
	return append(testPoolOptions(seed), WithOutcomes(k))
}

// syntheticRow derives the k responses of row i deterministically from its
// covariate, so two identically-seeded instances fed through different entry
// points see exactly the same data.
func syntheticRow(i, dim, k int) ([]float64, []float64) {
	x, y0 := syntheticPoint(i, dim)
	ys := make([]float64, k)
	ys[0] = y0
	for o := 1; o < k; o++ {
		var dot float64
		for j := 0; j < dim; j++ {
			dot += x[j] * float64((j+o)%dim+1)
		}
		ys[o] = dot / float64(dim*dim)
	}
	return x, ys
}

// TestMultiOutcomeEstimator drives the public multi-outcome surface: New
// returns a MultiEstimator whose row-wise and flat entry points land
// bit-identically, and whose per-outcome estimates are stable under repeated
// calls (the memoized lazy solve).
func TestMultiOutcomeEstimator(t *testing.T) {
	const dim, k, n = 4, 3, 20
	a, err := New("multi-outcome", multiOptions(11, k)...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("multi-outcome", multiOptions(11, k)...)
	if err != nil {
		t.Fatal(err)
	}
	ma, ok := a.(MultiEstimator)
	if !ok {
		t.Fatal("multi-outcome estimator does not implement MultiEstimator")
	}
	mb := b.(MultiEstimator)
	if ma.Outcomes() != k {
		t.Fatalf("Outcomes() = %d, want %d", ma.Outcomes(), k)
	}

	var flatXs, flatYs []float64
	for i := 0; i < n; i++ {
		x, ys := syntheticRow(i, dim, k)
		if err := ma.ObserveMulti(x, ys); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		flatXs = append(flatXs, x...)
		flatYs = append(flatYs, ys...)
	}
	if err := mb.ObserveMultiFlat(dim, flatXs, flatYs); err != nil {
		t.Fatal(err)
	}

	for o := 0; o < k; o++ {
		ta, err := ma.EstimateOutcome(o)
		if err != nil {
			t.Fatalf("outcome %d: %v", o, err)
		}
		tb, err := mb.EstimateOutcome(o)
		if err != nil {
			t.Fatalf("outcome %d: %v", o, err)
		}
		for j := range ta {
			if ta[j] != tb[j] {
				t.Fatalf("outcome %d coord %d: row-wise %v != flat %v", o, j, ta[j], tb[j])
			}
		}
		again, err := ma.EstimateOutcome(o)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ta {
			if again[j] != ta[j] {
				t.Fatalf("outcome %d: memoized estimate drifted at coord %d", o, j)
			}
		}
	}
	if _, err := ma.EstimateOutcome(k); err == nil {
		t.Fatal("out-of-range outcome accepted")
	}
	if _, err := ma.EstimateOutcome(-1); err == nil {
		t.Fatal("negative outcome accepted")
	}
	if err := ma.ObserveMulti(flatXs[:dim], flatYs[:k-1]); err == nil {
		t.Fatal("short response row accepted")
	}
}

// TestWithOutcomesRequiresMultiMechanism pins the construction-time guard:
// outcome counts above 1 only make sense on the multi-outcome mechanism.
func TestWithOutcomesRequiresMultiMechanism(t *testing.T) {
	for _, mech := range []string{"gradient", "projected", "generic-erm", "nonprivate"} {
		if _, err := New(mech, append(testPoolOptions(1), WithOutcomes(2))...); err == nil {
			t.Fatalf("%s accepted WithOutcomes(2)", mech)
		}
	}
	if _, err := New("multi-outcome", append(testPoolOptions(1), WithOutcomes(-1))...); err == nil {
		t.Fatal("negative outcome count accepted")
	}
	// Aliases resolve to the same capability.
	for _, alias := range []string{"primo", "multi"} {
		if _, err := New(alias, multiOptions(1, 2)...); err != nil {
			t.Fatalf("alias %q: %v", alias, err)
		}
	}
}

// TestSingleOutcomeAdapterDegrades checks the graceful k = 1 degradation on
// mechanisms without native multi support: the MultiEstimator surface exists,
// reports one outcome, and rejects wider rows.
func TestSingleOutcomeAdapterDegrades(t *testing.T) {
	est, err := New("gradient", testPoolOptions(3)...)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := est.(MultiEstimator)
	if !ok {
		t.Fatal("adapter does not implement MultiEstimator")
	}
	if m.Outcomes() != 1 {
		t.Fatalf("Outcomes() = %d, want 1", m.Outcomes())
	}
	x, ys := syntheticRow(0, 4, 1)
	if err := m.ObserveMulti(x, ys); err != nil {
		t.Fatal(err)
	}
	theta, err := m.EstimateOutcome(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	for j := range theta {
		if theta[j] != want[j] {
			t.Fatalf("coord %d: EstimateOutcome(0) %v != Estimate() %v", j, theta[j], want[j])
		}
	}
	if err := m.ObserveMulti(x, []float64{1, 2}); err == nil {
		t.Fatal("two-response row accepted by single-outcome estimator")
	}
	if _, err := m.EstimateOutcome(1); err == nil {
		t.Fatal("outcome 1 accepted by single-outcome estimator")
	}
}

// TestPoolMultiOutcomeCheckpointRestore is the durability property at the
// public layer: a multi-outcome pool flushed mid-stream and its spill
// directory reopened by a differently-seeded pool continues bit-identically
// with an uninterrupted reference, for every outcome.
func TestPoolMultiOutcomeCheckpointRestore(t *testing.T) {
	const dim, k, n, cut = 4, 3, 24, 10
	dir := t.TempDir()
	newPool := func(seed int64, extra ...Option) *Pool {
		p, err := NewPool("multi-outcome", append(multiOptions(seed, k), extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ref := newPool(21)
	live := newPool(21, WithSpillDir(dir))

	feed := func(p *Pool, lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			x, ys := syntheticRow(i, dim, k)
			for s := 0; s < 2; s++ {
				id := fmt.Sprintf("st-%d", s)
				if err := p.ObserveMultiFlat(id, dim, x, ys); err != nil {
					t.Fatalf("%s row %d: %v", id, i, err)
				}
			}
		}
	}
	feed(ref, 0, n)
	feed(live, 0, cut)

	if _, err := live.Flush(); err != nil {
		t.Fatal(err)
	}
	// Different seed: state must come from the segments.
	restored := newPool(99999, WithSpillDir(dir))
	if got := restored.Outcomes(); got != k {
		t.Fatalf("restored pool serves %d outcomes, want %d", got, k)
	}
	feed(restored, cut, n)

	for s := 0; s < 2; s++ {
		id := fmt.Sprintf("st-%d", s)
		if length, ok := restored.LenOK(id); !ok || length != n {
			t.Fatalf("%s: len %d ok %v, want %d", id, length, ok, n)
		}
		for o := 0; o < k; o++ {
			want, err := ref.EstimateOutcome(id, o)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.EstimateOutcome(id, o)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s outcome %d coord %d: restored %v != reference %v", id, o, j, got[j], want[j])
				}
			}
		}
	}
}
