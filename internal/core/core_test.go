package core

import (
	"errors"
	"math"
	"testing"

	"privreg/internal/constraint"
	"privreg/internal/dp"
	"privreg/internal/erm"
	"privreg/internal/loss"
	"privreg/internal/randx"
	"privreg/internal/stream"
	"privreg/internal/vec"
)

func privacy() dp.Params { return dp.Params{Epsilon: 1, Delta: 1e-6} }

// hugeEpsilon yields negligible noise so mechanisms can be checked against the
// exact solution.
func hugeEpsilon() dp.Params { return dp.Params{Epsilon: 1e7, Delta: 1e-6} }

func linearStream(d int, noise float64, sparsity int, seed int64) (stream.Generator, vec.Vector) {
	src := randx.NewSource(seed)
	truth := vec.Vector(src.UnitSphere(d))
	truth.Scale(0.7)
	gen, err := stream.NewLinearModel(truth, noise, sparsity, src.Split())
	if err != nil {
		panic(err)
	}
	return gen, truth
}

// observe feeds p to est as a one-row batch.
func observe(est Estimator, p loss.Point) error {
	return est.ObserveRows(p.X, []float64{p.Y})
}

// observePoints feeds ps to est as one flat batch.
func observePoints(est Estimator, ps []loss.Point) error {
	var xs, ys []float64
	for _, p := range ps {
		xs = append(xs, p.X...)
		ys = append(ys, p.Y)
	}
	return est.ObserveRows(xs, ys)
}

func feed(t *testing.T, est Estimator, gen stream.Generator, n int) []loss.Point {
	t.Helper()
	data := make([]loss.Point, 0, n)
	for i := 0; i < n; i++ {
		p := gen.Next()
		data = append(data, p)
		if err := observe(est, p); err != nil {
			t.Fatalf("ObserveRows failed at %d: %v", i, err)
		}
	}
	return data
}

func TestClampPoint(t *testing.T) {
	p := clampPoint(loss.Point{X: vec.Vector{3, 4}, Y: 5})
	if math.Abs(vec.Norm2(p.X)-1) > 1e-12 {
		t.Fatalf("covariate not clipped to unit norm: %v", vec.Norm2(p.X))
	}
	if p.Y != 1 {
		t.Fatalf("response not clamped: %v", p.Y)
	}
	q := clampPoint(loss.Point{X: vec.Vector{0.1, 0.1}, Y: -0.5})
	if !vec.Equal(q.X, vec.Vector{0.1, 0.1}, 1e-15) || q.Y != -0.5 {
		t.Fatal("in-range point modified")
	}
}

func TestNonPrivateIncrementalTracksExactMinimizer(t *testing.T) {
	d := 4
	c := constraint.NewL2Ball(d, 1)
	m := NewNonPrivateIncremental(c, 0)
	gen, _ := linearStream(d, 0.02, 0, 1)
	data := feed(t, m, gen, 120)
	got, err := m.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := erm.Exact(loss.Squared{}, c, data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Risk(got) > m.Risk(exact)+1e-5 {
		t.Fatalf("incremental baseline risk %v worse than batch exact %v", m.Risk(got), m.Risk(exact))
	}
	if !c.Contains(got, 1e-6) {
		t.Fatal("estimate not feasible")
	}
}

func TestGradientRegressionConvergesWithNegligibleNoise(t *testing.T) {
	d := 5
	c := constraint.NewL2Ball(d, 1)
	src := randx.NewSource(2)
	est, err := NewGradientRegression(c, hugeEpsilon(), 200, src, RegressionOptions{MaxIterations: 3000, MinIterations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := linearStream(d, 0.01, 0, 3)
	oracle := NewNonPrivateIncremental(c, 0)
	for i := 0; i < 200; i++ {
		p := gen.Next()
		if err := observe(est, p); err != nil {
			t.Fatal(err)
		}
		if err := observe(oracle, p); err != nil {
			t.Fatal(err)
		}
	}
	theta, err := est.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := oracle.Estimate()
	excess := oracle.Risk(theta) - oracle.Risk(exact)
	// With negligible noise only the finite optimization budget separates the
	// mechanism from the exact minimizer; its excess must be tiny relative to the
	// trivial constant predictor's.
	trivial := oracle.Risk(vec.NewVector(d)) - oracle.Risk(exact)
	if excess > 0.3 || excess > trivial/10 {
		t.Fatalf("with negligible noise the mechanism should nearly match the exact solution; excess = %v (trivial = %v)", excess, trivial)
	}
	if !c.Contains(theta, 1e-6) {
		t.Fatal("estimate not feasible")
	}
}

func TestGradientRegressionEstimateFeasibleUnderRealNoise(t *testing.T) {
	d := 6
	c := constraint.NewL1Ball(d, 1)
	src := randx.NewSource(3)
	est, err := NewGradientRegression(c, privacy(), 64, src, RegressionOptions{MaxIterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := linearStream(d, 0.05, 2, 4)
	feed(t, est, gen, 64)
	theta, err := est.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Contains(theta, 1e-6) {
		t.Fatalf("estimate %v not in the constraint set", theta)
	}
	if !vec.IsFinite(theta) {
		t.Fatal("estimate has non-finite entries")
	}
	if est.GradientErrorScale() <= 0 {
		t.Fatal("gradient error scale should be positive under real noise")
	}
}

func TestGradientRegressionReproducibleWithSameSeed(t *testing.T) {
	d := 4
	c := constraint.NewL2Ball(d, 1)
	run := func() vec.Vector {
		src := randx.NewSource(99)
		est, err := NewGradientRegression(c, privacy(), 32, src, RegressionOptions{MaxIterations: 80})
		if err != nil {
			t.Fatal(err)
		}
		gen, _ := linearStream(d, 0.05, 0, 5)
		feed(t, est, gen, 32)
		theta, err := est.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		return theta
	}
	a := run()
	b := run()
	if !vec.Equal(a, b, 0) {
		t.Fatalf("same seed produced different outputs: %v vs %v", a, b)
	}
}

func TestGradientRegressionStreamFullAndValidation(t *testing.T) {
	c := constraint.NewL2Ball(2, 1)
	src := randx.NewSource(4)
	est, err := NewGradientRegression(c, privacy(), 2, src, RegressionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := loss.Point{X: vec.Vector{0.1, 0.1}, Y: 0.1}
	if err := observe(est, p); err != nil {
		t.Fatal(err)
	}
	if err := observe(est, p); err != nil {
		t.Fatal(err)
	}
	if err := observe(est, p); !errors.Is(err, ErrStreamFull) {
		t.Fatalf("expected ErrStreamFull, got %v", err)
	}
	if err := observe(est, loss.Point{X: vec.Vector{1}, Y: 0}); err == nil || errors.Is(err, ErrStreamFull) {
		t.Fatalf("dimension mismatch should error before the horizon check, got %v", err)
	}
	// Constructor validation.
	if _, err := NewGradientRegression(nil, privacy(), 4, src, RegressionOptions{}); err == nil {
		t.Fatal("nil constraint should be rejected")
	}
	if _, err := NewGradientRegression(c, dp.Params{Epsilon: 1, Delta: 0}, 4, src, RegressionOptions{}); err == nil {
		t.Fatal("delta=0 should be rejected")
	}
	if _, err := NewGradientRegression(c, privacy(), 0, src, RegressionOptions{}); err == nil {
		t.Fatal("zero horizon should be rejected")
	}
	if _, err := NewGradientRegression(c, privacy(), 4, nil, RegressionOptions{}); err == nil {
		t.Fatal("nil source should be rejected")
	}
}

func TestGradientRegressionHybridHasNoHorizonLimit(t *testing.T) {
	c := constraint.NewL2Ball(2, 1)
	src := randx.NewSource(5)
	est, err := NewGradientRegression(c, hugeEpsilon(), 4, src, RegressionOptions{UseHybridTree: true, MaxIterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	p := loss.Point{X: vec.Vector{0.5, 0.1}, Y: 0.3}
	for i := 0; i < 20; i++ { // well beyond the nominal horizon of 4
		if err := observe(est, p); err != nil {
			t.Fatalf("hybrid mechanism rejected point %d: %v", i, err)
		}
	}
	if est.Len() != 20 {
		t.Fatalf("Len = %d", est.Len())
	}
	if _, err := est.Estimate(); err != nil {
		t.Fatal(err)
	}
}

func TestPrivateGradientMatchesExactWhenNoiseNegligible(t *testing.T) {
	d := 3
	c := constraint.NewL2Ball(d, 1)
	src := randx.NewSource(6)
	est, err := NewGradientRegression(c, hugeEpsilon(), 16, src, RegressionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	state := erm.NewMultiStats(d, 1)
	gen, _ := linearStream(d, 0.05, 0, 7)
	for i := 0; i < 16; i++ {
		p := gen.Next()
		if err := observe(est, p); err != nil {
			t.Fatal(err)
		}
		state.AddRows(p.X, []float64{p.Y})
	}
	pg := est.Gradient()
	theta := vec.Vector{0.2, -0.1, 0.3}
	got := vec.NewVector(d)
	pg.GradientInto(got, theta)
	want := vec.NewVector(d)
	state.GradientInto(want, theta, 0, 1, 0)
	if vec.Dist2(got, want) > 1e-2*(1+vec.Norm2(want)) {
		t.Fatalf("private gradient %v differs from exact %v", got, want)
	}
}
