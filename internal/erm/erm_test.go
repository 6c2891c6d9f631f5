package erm

import (
	"math"
	"testing"

	"privreg/internal/constraint"
	"privreg/internal/dp"
	"privreg/internal/loss"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// makeRegressionData builds n points from y = <x, θ*> + noise with unit-ball
// covariates.
func makeRegressionData(n, d int, truth vec.Vector, noise float64, src *randx.Source) []loss.Point {
	data := make([]loss.Point, n)
	for i := range data {
		x := vec.Vector(src.UnitBall(d))
		y := vec.Dot(x, truth) + src.Normal(0, noise)
		data[i] = loss.Point{X: x, Y: y}
	}
	return data
}

func TestExactMatchesClosedFormUnconstrainedInterior(t *testing.T) {
	// With an interior optimum, the constrained solution equals the OLS solution.
	src := randx.NewSource(1)
	d, n := 3, 200
	truth := vec.Vector{0.3, -0.2, 0.1}
	data := makeRegressionData(n, d, truth, 0.01, src)
	cons := constraint.NewL2Ball(d, 5) // generous: optimum is interior
	got, err := Exact(loss.Squared{}, cons, data)
	if err != nil {
		t.Fatal(err)
	}
	// Closed form via normal equations.
	ata := vec.NewMatrix(d, d)
	aty := vec.NewVector(d)
	for _, z := range data {
		ata.AddOuterInPlace(1, z.X)
		vec.Axpy(aty, z.Y, z.X)
	}
	want, err := vec.SolveRidge(ata, aty, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if vec.Dist2(got, want) > 1e-3 {
		t.Fatalf("Exact = %v, closed form = %v", got, want)
	}
}

func TestExactRespectsConstraint(t *testing.T) {
	src := randx.NewSource(2)
	d := 4
	truth := vec.Vector{2, 2, 2, 2} // far outside the small ball
	data := makeRegressionData(100, d, truth, 0.01, src)
	cons := constraint.NewL1Ball(d, 0.5)
	got, err := Exact(loss.Squared{}, cons, data)
	if err != nil {
		t.Fatal(err)
	}
	if !cons.Contains(got, 1e-6) {
		t.Fatalf("solution %v outside the constraint set", got)
	}
	// Optimality within the set: no random feasible point does better.
	obj := loss.Empirical(loss.Squared{}, got, data)
	for trial := 0; trial < 200; trial++ {
		probe := vec.Vector(src.NormalVector(d, 1))
		cons.ProjectInto(probe, probe, nil)
		if loss.Empirical(loss.Squared{}, probe, data) < obj-1e-6 {
			t.Fatalf("found a better feasible point than Exact's solution")
		}
	}
}

func TestExactEmptyData(t *testing.T) {
	cons := constraint.NewL2Ball(3, 1)
	got, err := Exact(loss.Squared{}, cons, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cons.Contains(got, 1e-9) {
		t.Fatal("empty-data solution must still be feasible")
	}
	if _, err := Exact(nil, cons, nil); err == nil {
		t.Fatal("nil loss should error")
	}
}

// TestLeastSquaresStateMatchesDirectComputation checks the least-squares
// state — k = 1 MultiStats plus ExactStats — against direct sums over the data
// and the batch Exact solver.
func TestLeastSquaresStateMatchesDirectComputation(t *testing.T) {
	src := randx.NewSource(3)
	d, n := 4, 60
	truth := vec.Vector{0.2, -0.3, 0.1, 0.4}
	data := makeRegressionData(n, d, truth, 0.05, src)
	cons := constraint.NewL2Ball(d, 1)
	state := foldStats(data, d)
	if state.Len() != n {
		t.Fatalf("Len = %d", state.Len())
	}
	// Risk computed from sufficient statistics must equal the direct sum.
	theta := vec.Vector{0.1, 0.1, -0.1, 0.2}
	want := loss.Empirical(loss.Squared{}, theta, data)
	if got := state.Risk(theta, 0); math.Abs(got-want) > 1e-8*(1+want) {
		t.Fatalf("Risk = %v, want %v", got, want)
	}
	// Gradient from sufficient statistics must equal the summed gradient.
	wantG := loss.EmpiricalGradient(loss.Squared{}, theta, data)
	got := vec.NewVector(d)
	state.GradientInto(got, theta, 0, 1, 0)
	if vec.Dist2(got, wantG) > 1e-8*(1+vec.Norm2(wantG)) {
		t.Fatalf("Gradient = %v, want %v", got, wantG)
	}
	// Minimizer must be at least as good as the batch Exact solver result.
	minimized := ExactStats(nil, state, cons, 0)
	exact, err := Exact(loss.Squared{}, cons, data)
	if err != nil {
		t.Fatal(err)
	}
	if state.Risk(minimized, 0) > state.Risk(exact, 0)+1e-6 {
		t.Fatalf("incremental minimizer risk %v worse than batch %v", state.Risk(minimized, 0), state.Risk(exact, 0))
	}
	if !cons.Contains(minimized, 1e-6) {
		t.Fatal("minimizer not feasible")
	}
}

func TestLeastSquaresStateEmptyAndUnconstrained(t *testing.T) {
	state := NewMultiStats(3, 1)
	var ws ExactWorkspace
	m := ExactStats(&ws, state, nil, 0)
	if vec.Norm2(m) != 0 {
		t.Fatalf("empty unconstrained minimizer = %v", m)
	}
	state.AddRows(vec.Vector{1, 0, 0}, []float64{2})
	state.AddRows(vec.Vector{0, 1, 0}, []float64{-1})
	state.AddRows(vec.Vector{0, 0, 1}, []float64{0.5})
	m = ExactStats(&ws, state, nil, 0)
	if vec.Dist2(m, vec.Vector{2, -1, 0.5}) > 1e-6 {
		t.Fatalf("unconstrained minimizer = %v", m)
	}
}

func TestPrivateBatchFeasibleAndReasonable(t *testing.T) {
	src := randx.NewSource(4)
	d, n := 4, 3000
	truth := vec.Vector{0.5, -0.4, 0.3, 0.3}
	data := makeRegressionData(n, d, truth, 0.05, src.Split())
	cons := constraint.NewL2Ball(d, 1)
	p := dp.Params{Epsilon: 2, Delta: 1e-6}
	theta, err := NewSolver(cons).SolveHistory(loss.Squared{}, data, p, src.DeriveKey(), 1, PrivateBatchOptions{Iterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !cons.Contains(theta, 1e-6) {
		t.Fatalf("private solution %v not feasible", theta)
	}
	// The private solution must beat the trivial all-zeros predictor (the data
	// has strong signal and n is large relative to the noise scale).
	exact, err := Exact(loss.Squared{}, cons, data)
	if err != nil {
		t.Fatal(err)
	}
	excessPrivate := loss.Empirical(loss.Squared{}, theta, data) - loss.Empirical(loss.Squared{}, exact, data)
	excessTrivial := loss.Empirical(loss.Squared{}, vec.NewVector(d), data) - loss.Empirical(loss.Squared{}, exact, data)
	if excessPrivate >= excessTrivial {
		t.Fatalf("private batch ERM (excess %v) should beat the trivial predictor (excess %v)", excessPrivate, excessTrivial)
	}
}

func TestPrivateBatchNoiseDecreasesWithEpsilon(t *testing.T) {
	src := randx.NewSource(5)
	d, n := 3, 300
	truth := vec.Vector{0.5, -0.4, 0.3}
	data := makeRegressionData(n, d, truth, 0.02, src.Split())
	cons := constraint.NewL2Ball(d, 1)
	exact, err := Exact(loss.Squared{}, cons, data)
	if err != nil {
		t.Fatal(err)
	}
	excess := func(eps float64, key int64) float64 {
		var total float64
		const reps = 5
		for i := uint64(0); i < reps; i++ {
			theta, err := NewSolver(cons).SolveHistory(loss.Squared{}, data, dp.Params{Epsilon: eps, Delta: 1e-6}, key, i, PrivateBatchOptions{Iterations: 60})
			if err != nil {
				t.Fatal(err)
			}
			total += loss.Empirical(loss.Squared{}, theta, data) - loss.Empirical(loss.Squared{}, exact, data)
		}
		return total / reps
	}
	low := excess(0.1, 100)
	high := excess(10, 200)
	if high >= low {
		t.Fatalf("excess risk should decrease with epsilon: ε=0.1 → %v, ε=10 → %v", low, high)
	}
}

func TestPrivateBatchValidation(t *testing.T) {
	cons := constraint.NewL2Ball(2, 1)
	if _, err := NewSolver(cons).SolveHistory(nil, nil, dp.Params{Epsilon: 1, Delta: 1e-6}, 6, 0, PrivateBatchOptions{}); err == nil {
		t.Fatal("nil loss should error")
	}
	if _, err := NewSolver(cons).SolveHistory(loss.Squared{}, nil, dp.Params{Epsilon: 0, Delta: 1e-6}, 6, 0, PrivateBatchOptions{}); err == nil {
		t.Fatal("invalid privacy should error")
	}
	// Empty data returns a feasible default.
	theta, err := NewSolver(cons).SolveHistory(loss.Squared{}, nil, dp.Params{Epsilon: 1, Delta: 1e-6}, 6, 0, PrivateBatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cons.Contains(theta, 1e-9) {
		t.Fatal("empty-data private solution must be feasible")
	}
}
