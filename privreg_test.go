package privreg

import (
	"math"
	"testing"
)

// testOptions is the common test template: an L2 ball of dimension d, horizon
// 32, (1, 1e-6) budget, seed 7. Later options override earlier ones.
func testOptions(d int, extra ...Option) []Option {
	return append([]Option{
		WithEpsilonDelta(1, 1e-6),
		WithHorizon(32),
		WithConstraint(L2Constraint(d, 1)),
		WithSeed(7),
	}, extra...)
}

// runStream feeds a small synthetic stream and returns covariates, responses.
func runStream(t *testing.T, est Estimator, d, n int) ([][]float64, []float64) {
	t.Helper()
	xs := make([][]float64, 0, n)
	ys := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		x[i%d] = 0.9
		y := 0.5 * x[i%d]
		xs = append(xs, x)
		ys = append(ys, y)
		if err := est.Observe(x, y); err != nil {
			t.Fatalf("Observe(%d): %v", i, err)
		}
	}
	return xs, ys
}

func TestConstraintConstructorsAndGeometry(t *testing.T) {
	cases := []Constraint{
		L2Constraint(8, 1),
		L1Constraint(8, 1),
		LpConstraint(8, 1.5, 1),
		SimplexConstraint(8, 1),
		GroupL1Constraint(8, 2, 1),
		BoxConstraint(8, 0.5),
		PolytopeConstraint([][]float64{{1, 0}, {0, 1}, {-1, -1}}),
	}
	for _, c := range cases {
		if c.Dim() <= 0 || c.Diameter() <= 0 || c.GaussianWidth() <= 0 {
			t.Fatalf("%s: degenerate geometry", c.Name())
		}
		x := make([]float64, c.Dim())
		for i := range x {
			x[i] = 3
		}
		p := c.Project(x)
		if !c.Contains(p, 1e-5) {
			t.Fatalf("%s: projection not contained", c.Name())
		}
	}
	// Width ordering the library is built around.
	l1 := L1Constraint(1024, 1)
	l2 := L2Constraint(1024, 1)
	if l1.GaussianWidth() >= l2.GaussianWidth()/4 {
		t.Fatal("L1 constraint should have much smaller width than L2 in high dimension")
	}
	// Domains.
	if SparseDomain(100, 3).GaussianWidth() >= UnitBallDomain(100).GaussianWidth() {
		t.Fatal("sparse domain should be narrower than the unit ball")
	}
	if !L1Domain(10, 1).Contains(make([]float64, 10), 1e-9) {
		t.Fatal("origin should belong to the L1 domain")
	}
}

func TestGradientRegressionPublicAPI(t *testing.T) {
	d := 4
	cons := L2Constraint(d, 1)
	est, err := New("gradient", testOptions(d)...)
	if err != nil {
		t.Fatal(err)
	}
	if est.Name() == "" {
		t.Fatal("empty name")
	}
	xs, ys := runStream(t, est, d, 32)
	theta, err := est.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if len(theta) != d {
		t.Fatalf("estimate dimension %d", len(theta))
	}
	if !cons.Contains(theta, 1e-5) {
		t.Fatal("estimate not feasible")
	}
	if est.Len() != 32 {
		t.Fatalf("Len = %d", est.Len())
	}
	excess, err := ExcessRisk(cons, xs, ys, theta)
	if err != nil {
		t.Fatal(err)
	}
	if excess < 0 || math.IsNaN(excess) {
		t.Fatalf("excess risk = %v", excess)
	}
}

func TestProjectedRegressionPublicAPI(t *testing.T) {
	d := 32
	cons := L1Constraint(d, 1)
	opts := func(dom ...Option) []Option {
		return append([]Option{
			WithEpsilonDelta(1, 1e-6),
			WithHorizon(24),
			WithConstraint(cons),
			WithSeed(11),
		}, dom...)
	}
	est, err := New("projected", opts(WithDomain(SparseDomain(d, 3)))...)
	if err != nil {
		t.Fatal(err)
	}
	runStream(t, est, d, 24)
	theta, err := est.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if !cons.Contains(theta, 1e-4) {
		t.Fatal("estimate not feasible")
	}
	// Domain is required.
	if _, err := New("projected", opts()...); err == nil {
		t.Fatal("missing domain should be rejected")
	}
	// Mismatched dimensions are rejected.
	if _, err := New("projected", opts(WithDomain(SparseDomain(d+1, 3)))...); err == nil {
		t.Fatal("dimension mismatch should be rejected")
	}
}

func TestRobustProjectedRegressionPublicAPI(t *testing.T) {
	d := 16
	opts := []Option{
		WithEpsilonDelta(1, 1e-6),
		WithHorizon(16),
		WithConstraint(L1Constraint(d, 1)),
		WithDomain(SparseDomain(d, 2)),
		WithSeed(13),
	}
	est, err := New("robust-projected", append(opts, WithDomainOracle(func(x []float64) bool {
		nz := 0
		for _, v := range x {
			if v != 0 {
				nz++
			}
		}
		return nz <= 4
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	runStream(t, est, d, 16)
	if _, err := est.Estimate(); err != nil {
		t.Fatal(err)
	}
	if _, err := New("robust-projected", append(opts, WithDomainOracle(nil))...); err == nil {
		t.Fatal("nil oracle should be rejected")
	}
}

func TestGenericERMAndNaivePublicAPI(t *testing.T) {
	d := 3
	for _, l := range []Loss{SquaredLoss, LogisticLoss, HingeLoss} {
		est, err := New("generic-erm", testOptions(d, WithLoss(l))...)
		if err != nil {
			t.Fatalf("loss %v: %v", l, err)
		}
		runStream(t, est, d, 8)
		if _, err := est.Estimate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := New("generic-erm", testOptions(d, WithLoss(Loss(99)))...); err == nil {
		t.Fatal("unknown loss should be rejected")
	}
	naive, err := New("naive-recompute", testOptions(d, WithHorizon(6), WithMaxIterations(5), WithLoss(SquaredLoss))...)
	if err != nil {
		t.Fatal(err)
	}
	runStream(t, naive, d, 6)
	if _, err := naive.Estimate(); err != nil {
		t.Fatal(err)
	}
}

func TestNonPrivateBaselineMatchesSignal(t *testing.T) {
	d := 3
	cons := L2Constraint(d, 1)
	est, err := New("nonprivate", testOptions(d)...)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := runStream(t, est, d, 30)
	theta, err := est.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	excess, err := ExcessRisk(cons, xs, ys, theta)
	if err != nil {
		t.Fatal(err)
	}
	if excess > 1e-6 {
		t.Fatalf("exact baseline has nonzero excess risk %v", excess)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New("gradient", WithEpsilonDelta(1, 1e-6), WithHorizon(32)); err == nil {
		t.Fatal("missing constraint should be rejected")
	}
	noHorizon := []Option{WithEpsilonDelta(1, 1e-6), WithConstraint(L2Constraint(3, 1)), WithSeed(7)}
	if _, err := New("gradient", noHorizon...); err == nil {
		t.Fatal("missing horizon should be rejected")
	}
	if _, err := New("gradient", append(noHorizon, WithUnknownHorizon())...); err != nil {
		t.Fatalf("WithUnknownHorizon should allow a zero horizon: %v", err)
	}
	if _, err := New("gradient", testOptions(3, WithEpsilonDelta(-1, 1e-6))...); err == nil {
		t.Fatal("invalid privacy should be rejected")
	}
}

func TestSameSeedSameOutput(t *testing.T) {
	d := 4
	run := func() []float64 {
		est, err := New("gradient", testOptions(d)...)
		if err != nil {
			t.Fatal(err)
		}
		runStream(t, est, d, 16)
		theta, err := est.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		return theta
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different outputs")
		}
	}
}

// TestExcessRiskRejectsMismatchedShapes checks that a covariate or an estimate
// whose length is not the constraint's dimension is an error, not a panic.
func TestExcessRiskRejectsMismatchedShapes(t *testing.T) {
	cons := L2Constraint(4, 1)
	row := []float64{0.5, 0, 0, 0}
	cases := []struct {
		name     string
		xs       [][]float64
		estimate []float64
	}{
		{"narrow row", [][]float64{{0.5, 0}}, []float64{0, 0, 0, 0}},
		{"wide row", [][]float64{{0.5, 0, 0, 0, 0}}, []float64{0, 0, 0, 0}},
		{"narrow row after a good one", [][]float64{row, {0.5, 0}}, []float64{0, 0, 0, 0}},
		{"narrow estimate", [][]float64{row}, []float64{0, 0}},
		{"wide estimate", [][]float64{row}, []float64{0, 0, 0, 0, 0}},
		{"nil estimate", [][]float64{row}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ExcessRisk panicked: %v", r)
				}
			}()
			ys := make([]float64, len(c.xs))
			if _, err := ExcessRisk(cons, c.xs, ys, c.estimate); err == nil {
				t.Fatal("mismatched shape should error")
			}
		})
	}
}

func TestExcessRiskAndWidthHelpers(t *testing.T) {
	cons := L2Constraint(2, 1)
	xs := [][]float64{{1, 0}, {0, 1}}
	ys := []float64{0.5, -0.5}
	// The exact minimizer (0.5, -0.5) has zero excess.
	if got, err := ExcessRisk(cons, xs, ys, []float64{0.5, -0.5}); err != nil || got > 1e-9 {
		t.Fatalf("ExcessRisk of the exact minimizer = %v, %v", got, err)
	}
	// A bad estimate has positive excess.
	if got, _ := ExcessRisk(cons, xs, ys, []float64{-0.5, 0.5}); got <= 0 {
		t.Fatalf("ExcessRisk of a bad estimate = %v", got)
	}
	if _, err := ExcessRisk(cons, xs, ys[:1], []float64{0, 0}); err == nil {
		t.Fatal("mismatched lengths should error")
	}
	if _, err := ExcessRisk(Constraint{}, xs, ys, []float64{0, 0}); err == nil {
		t.Fatal("invalid constraint should error")
	}
	w, err := GaussianWidthOf(L1Constraint(100, 1), 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	analytic := L1Constraint(100, 1).GaussianWidth()
	if math.Abs(w-analytic)/analytic > 0.3 {
		t.Fatalf("Monte-Carlo width %v far from analytic %v", w, analytic)
	}
	if _, err := GaussianWidthOf(Constraint{}, 10, 1); err == nil {
		t.Fatal("invalid constraint should error")
	}
}
