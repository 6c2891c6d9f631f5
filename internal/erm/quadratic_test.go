package erm

import (
	"math"
	"testing"

	"privreg/internal/codec"
	"privreg/internal/constraint"
	"privreg/internal/dp"
	"privreg/internal/loss"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

func quadParams() dp.Params {
	return dp.Params{Epsilon: 1, Delta: 1e-6}
}

// negligibleNoise is a budget so large that the calibrated noise is far below
// the solver's convergence scale.
func negligibleNoise() dp.Params {
	return dp.Params{Epsilon: 1e9, Delta: 1e-6}
}

func foldStats(data []loss.Point, d int) *MultiStats {
	stats := NewMultiStats(d, 1)
	for _, z := range data {
		stats.AddRows(z.X, []float64{z.Y})
	}
	return stats
}

func TestQuadraticStatsMatchEmpiricalRiskAndGradient(t *testing.T) {
	src := randx.NewSource(11)
	d, n := 5, 80
	truth := vec.Vector{0.2, -0.1, 0.3, 0, 0.1}
	data := makeRegressionData(n, d, truth, 0.05, src)
	theta := vec.Vector{0.1, -0.2, 0.05, 0.15, -0.1}
	for _, tc := range []struct {
		f     loss.Function
		ridge float64
	}{
		{loss.Squared{}, 0},
		{loss.L2Regularized{Base: loss.Squared{}, Lambda: 0.3}, 0.3},
	} {
		scale, ridge, ok := loss.AsQuadratic(tc.f)
		if !ok || ridge != tc.ridge {
			t.Fatalf("%s: AsQuadratic = (%v, %v, %v)", tc.f.Name(), scale, ridge, ok)
		}
		stats := foldStats(data, d)
		if stats.Len() != n || stats.Dim() != d {
			t.Fatalf("Len/Dim = %d/%d", stats.Len(), stats.Dim())
		}
		want := loss.Empirical(loss.Squared{}, theta, data)
		if got := stats.Risk(theta, 0); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("%s: Risk = %v, want %v", tc.f.Name(), got, want)
		}
		wantG := loss.EmpiricalGradient(tc.f, theta, data)
		got := vec.NewVector(d)
		stats.GradientInto(got, theta, 0, scale, ridge)
		if vec.Dist2(got, wantG) > 1e-9*(1+vec.Norm2(wantG)) {
			t.Fatalf("%s: GradientInto = %v, want %v", tc.f.Name(), got, wantG)
		}
	}
}

func TestQuadraticStatsMarshalRoundTrip(t *testing.T) {
	src := randx.NewSource(13)
	d := 4
	data := makeRegressionData(30, d, vec.Vector{0.1, 0.2, -0.1, 0}, 0.1, src)
	stats := foldStats(data, d)
	blob := codec.Encode(stats)
	restored := NewMultiStats(d, 1)
	if err := restored.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != stats.Len() || restored.yys[0] != stats.yys[0] {
		t.Fatalf("restored n/yy = %d/%v, want %d/%v", restored.Len(), restored.yys[0], stats.Len(), stats.yys[0])
	}
	for i, v := range stats.a.Data() {
		if restored.a.Data()[i] != v {
			t.Fatalf("A[%d] differs after round trip", i)
		}
	}
	for i, v := range stats.bs[0] {
		if restored.bs[0][i] != v {
			t.Fatalf("B[%d] differs after round trip", i)
		}
	}
	// The blob is O(d²): folding more points must not grow it.
	for i := 0; i < 100; i++ {
		stats.AddRows(data[i%len(data)].X, []float64{data[i%len(data)].Y})
	}
	blob2 := codec.Encode(stats)
	if len(blob2) != len(blob) {
		t.Fatalf("checkpoint grew with stream length: %d -> %d bytes", len(blob), len(blob2))
	}
	// Wrong dimension is rejected.
	if err := NewMultiStats(d+1, 1).UnmarshalState(blob); err == nil {
		t.Fatal("dimension mismatch should be rejected")
	}
	if err := NewMultiStats(d, 2).UnmarshalState(blob); err == nil {
		t.Fatal("outcome count mismatch should be rejected")
	}
}

func TestSolveStatsApproximatesSolveHistory(t *testing.T) {
	// Same key, invocation, and noise sequence: the stats-based gradient and
	// the per-point gradient differ only in floating-point association, so the
	// two trajectories stay within numerical distance of each other.
	src := randx.NewSource(17)
	d, n := 4, 120
	truth := vec.Vector{0.3, -0.2, 0.1, 0.05}
	data := makeRegressionData(n, d, truth, 0.05, src)
	cons := constraint.NewL2Ball(d, 1)
	stats := foldStats(data, d)
	opts := PrivateBatchOptions{Iterations: 60}
	const key, inv = 99, 3
	fromStats, err := NewSolver(cons).SolveStats(loss.Squared{}, stats, 0, quadParams(), key, inv, opts)
	if err != nil {
		t.Fatal(err)
	}
	fromHistory, err := NewSolver(cons).SolveHistory(loss.Squared{}, data, quadParams(), key, inv, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dist := vec.Dist2(fromStats, fromHistory); dist > 1e-8 {
		t.Fatalf("stats and history solves diverge: %v apart", dist)
	}
	if !cons.Contains(fromStats, 1e-9) {
		t.Fatal("solution must be feasible")
	}
}

func TestSolverIsPureFunctionOfKeyAndInvocation(t *testing.T) {
	src := randx.NewSource(19)
	d, n := 3, 50
	data := makeRegressionData(n, d, vec.Vector{0.2, 0.1, -0.3}, 0.1, src)
	cons := constraint.NewL2Ball(d, 1)
	stats := foldStats(data, d)
	opts := PrivateBatchOptions{Iterations: 40}
	const key = 42
	sv := NewSolver(cons)
	want, err := sv.SolveStats(loss.Squared{}, stats, 0, quadParams(), key, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave unrelated solves at other invocations, then repeat: the reused
	// workspace must not leak state between solves.
	if _, err := sv.SolveStats(loss.Squared{}, stats, 0, quadParams(), key, 3, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.SolveHistory(loss.Squared{}, data[:10], quadParams(), key, 7, opts); err != nil {
		t.Fatal(err)
	}
	again, err := sv.SolveStats(loss.Squared{}, stats, 0, quadParams(), key, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != again[i] {
			t.Fatalf("solve not reproducible at coordinate %d: %v vs %v", i, want[i], again[i])
		}
	}
	// A fresh solver produces the same bits as the reused workspace on the
	// same arguments, over the statistics and over the history.
	fresh, err := NewSolver(cons).SolveStats(loss.Squared{}, stats, 0, quadParams(), key, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	hist1, err := sv.SolveHistory(loss.Squared{}, data, quadParams(), key, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	hist2, err := NewSolver(cons).SolveHistory(loss.Squared{}, data, quadParams(), key, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != fresh[i] {
			t.Fatalf("fresh solver differs at %d", i)
		}
		if hist1[i] != hist2[i] {
			t.Fatalf("fresh SolveHistory differs at %d", i)
		}
	}
	// Different invocations draw different noise.
	other, err := sv.SolveStats(loss.Squared{}, stats, 0, quadParams(), key, 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	if vec.Dist2(want, other) == 0 {
		t.Fatal("different invocations should produce different outputs")
	}
}

func TestSolverAccurateUnderNegligibleNoise(t *testing.T) {
	src := randx.NewSource(23)
	d, n := 4, 400
	truth := vec.Vector{0.3, -0.2, 0.1, 0.2}
	data := makeRegressionData(n, d, truth, 0.01, src)
	cons := constraint.NewL2Ball(d, 1)
	stats := foldStats(data, d)
	got, err := NewSolver(cons).SolveStats(loss.Squared{}, stats, 0, negligibleNoise(), 7, 1,
		PrivateBatchOptions{Iterations: 300})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Exact(loss.Squared{}, cons, data)
	if err != nil {
		t.Fatal(err)
	}
	// Same criterion as TestPrivateBatchFeasibleAndReasonable: the solve closes
	// most of the gap between the trivial zero estimator and the exact ERM.
	excess := loss.Empirical(loss.Squared{}, got, data) - loss.Empirical(loss.Squared{}, exact, data)
	trivial := loss.Empirical(loss.Squared{}, vec.NewVector(d), data) - loss.Empirical(loss.Squared{}, exact, data)
	if excess > trivial/2 {
		t.Fatalf("keyed solve excess %v not better than half the trivial excess %v", excess, trivial)
	}
	// Disabling the early stop must also be deterministic and feasible.
	noStop, err := NewSolver(cons).SolveStats(loss.Squared{}, stats, 0, negligibleNoise(), 7, 1,
		PrivateBatchOptions{Iterations: 300, Tolerance: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !cons.Contains(noStop, 1e-9) {
		t.Fatal("no-stop solution must be feasible")
	}
}

func TestSolverEdgeCases(t *testing.T) {
	cons := constraint.NewL2Ball(3, 1)
	sv := NewSolver(cons)
	// Empty data: the projected origin, no error.
	got, err := sv.SolveStats(loss.Squared{}, NewMultiStats(3, 1), 0, quadParams(), 1, 0, PrivateBatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vec.Norm2(got) != 0 {
		t.Fatalf("empty solve = %v, want origin", got)
	}
	// Non-quadratic loss is rejected by SolveStats.
	if _, err := sv.SolveStats(loss.Logistic{}, NewMultiStats(3, 1), 0, quadParams(), 1, 0, PrivateBatchOptions{}); err == nil {
		t.Fatal("logistic loss should be rejected")
	}
	// Dimension mismatch is rejected.
	if _, err := sv.SolveStats(loss.Squared{}, NewMultiStats(4, 1), 0, quadParams(), 1, 0, PrivateBatchOptions{}); err == nil {
		t.Fatal("dimension mismatch should be rejected")
	}
	// Invalid privacy parameters are rejected.
	if _, err := sv.SolveStats(loss.Squared{}, NewMultiStats(3, 1), 0, dp.Params{}, 1, 0, PrivateBatchOptions{}); err == nil {
		t.Fatal("zero privacy params should be rejected")
	}
}

func BenchmarkSolveStats(b *testing.B) {
	src := randx.NewSource(29)
	d := 32
	data := makeRegressionData(256, d, vec.Vector(src.UnitBall(d)), 0.05, src)
	cons := constraint.NewL2Ball(d, 1)
	stats := foldStats(data, d)
	sv := NewSolver(cons)
	opts := PrivateBatchOptions{Iterations: 60}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.SolveStats(loss.Squared{}, stats, 0, quadParams(), 5, uint64(i), opts); err != nil {
			b.Fatal(err)
		}
	}
}
