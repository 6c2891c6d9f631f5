package core

import (
	"math"
	"testing"

	"privreg/internal/constraint"
	"privreg/internal/dp"
	"privreg/internal/loss"
	"privreg/internal/randx"
	"privreg/internal/stream"
	"privreg/internal/vec"
)

func sparseDomainAndConstraint(d, k int) (constraint.Set, constraint.Set) {
	return constraint.NewSparseSet(d, k, 1), constraint.NewL1Ball(d, 1)
}

func TestProjectedRegressionParameterSelection(t *testing.T) {
	d, k := 128, 3
	domain, cons := sparseDomainAndConstraint(d, k)
	src := randx.NewSource(1)
	est, err := NewProjectedRegression(domain, cons, privacy(), 64, src, ProjectedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Width() <= 0 {
		t.Fatal("width should be positive")
	}
	if est.gamma <= 0 || est.gamma > 0.5 {
		t.Fatalf("gamma = %v out of range", est.gamma)
	}
	if m := est.ProjectionDim(); m < 1 || m > d {
		t.Fatalf("projection dimension %d out of range", m)
	}
	// A low-width domain in high ambient dimension should use far fewer than d
	// dimensions once d is large enough relative to the width rule.
	dBig := 4096
	domainBig := constraint.NewSparseSet(dBig, k, 1)
	consBig := constraint.NewL1Ball(dBig, 1)
	estBig, err := NewProjectedRegression(domainBig, consBig, privacy(), 64, randx.NewSource(2), ProjectedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if estBig.ProjectionDim() >= dBig {
		t.Fatalf("no compression at d=%d: m=%d", dBig, estBig.ProjectionDim())
	}
	// Explicit overrides are honored.
	est2, err := NewProjectedRegression(domain, cons, privacy(), 64, randx.NewSource(3), ProjectedOptions{ProjectionDim: 7, Gamma: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if est2.ProjectionDim() != 7 || est2.gamma != 0.3 {
		t.Fatalf("overrides ignored: m=%d gamma=%v", est2.ProjectionDim(), est2.gamma)
	}
}

func TestProjectedRegressionValidation(t *testing.T) {
	domain, cons := sparseDomainAndConstraint(16, 2)
	src := randx.NewSource(4)
	if _, err := NewProjectedRegression(nil, cons, privacy(), 8, src, ProjectedOptions{}); err == nil {
		t.Fatal("nil domain should be rejected")
	}
	if _, err := NewProjectedRegression(constraint.NewSparseSet(8, 2, 1), cons, privacy(), 8, src, ProjectedOptions{}); err == nil {
		t.Fatal("dimension mismatch should be rejected")
	}
	if _, err := NewProjectedRegression(domain, cons, dp.Params{Epsilon: 1, Delta: 0}, 8, src, ProjectedOptions{}); err == nil {
		t.Fatal("delta=0 should be rejected")
	}
	if _, err := NewProjectedRegression(domain, cons, privacy(), 0, src, ProjectedOptions{}); err == nil {
		t.Fatal("zero horizon should be rejected")
	}
	if _, err := NewProjectedRegression(domain, cons, privacy(), 8, nil, ProjectedOptions{}); err == nil {
		t.Fatal("nil source should be rejected")
	}
}

func TestProjectedRegressionEstimatesAreFeasible(t *testing.T) {
	d, k := 48, 3
	domain, cons := sparseDomainAndConstraint(d, k)
	src := randx.NewSource(5)
	est, err := NewProjectedRegression(domain, cons, privacy(), 32, src, ProjectedOptions{
		RegressionOptions: RegressionOptions{MaxIterations: 80},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := linearStream(d, 0.05, k, 6)
	feed(t, est, gen, 32)
	theta, err := est.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if len(theta) != d {
		t.Fatalf("estimate has dimension %d, want %d", len(theta), d)
	}
	if !cons.Contains(theta, 1e-6) {
		t.Fatalf("estimate not in C: ‖θ‖₁ = %v", vec.Norm1(theta))
	}
	if !vec.IsFinite(theta) {
		t.Fatal("estimate has non-finite entries")
	}
	if est.Len() != 32 {
		t.Fatalf("Len = %d", est.Len())
	}
}

func TestProjectedRegressionLowNoiseBeatsTrivial(t *testing.T) {
	// With negligible privacy noise, the projected mechanism should track the
	// exact minimizer much better than the trivial constant output, despite the
	// dimensionality reduction and lifting.
	d, k, horizon := 64, 3, 96
	domain, cons := sparseDomainAndConstraint(d, k)
	src := randx.NewSource(7)
	est, err := NewProjectedRegression(domain, cons, hugeEpsilon(), horizon, src.Split(), ProjectedOptions{
		RegressionOptions: RegressionOptions{MaxIterations: 300, MinIterations: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := vec.NewVector(d)
	truth[1], truth[5], truth[9] = 0.5, -0.3, 0.2
	gen, err := stream.NewLinearModel(truth, 0.02, k, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewNonPrivateIncremental(cons, 0)
	for i := 0; i < horizon; i++ {
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
	base := oracle.Risk(exact)
	excess := oracle.Risk(theta) - base
	trivialExcess := oracle.Risk(vec.NewVector(d)) - base
	if excess >= trivialExcess {
		t.Fatalf("low-noise projected mechanism (excess %v) should beat the trivial predictor (excess %v)", excess, trivialExcess)
	}
}

func TestProjectedRegressionExactImageOption(t *testing.T) {
	d, k := 24, 2
	domain, cons := sparseDomainAndConstraint(d, k)
	src := randx.NewSource(8)
	est, err := NewProjectedRegression(domain, cons, privacy(), 16, src, ProjectedOptions{
		RegressionOptions: RegressionOptions{MaxIterations: 60},
		ExactImage:        true,
		ProjectionDim:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := linearStream(d, 0.05, k, 9)
	feed(t, est, gen, 16)
	theta, err := est.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if !cons.Contains(theta, 1e-6) {
		t.Fatal("estimate not feasible with the exact-image option")
	}
}

func TestProjectedRegressionReproducible(t *testing.T) {
	d, k := 32, 2
	run := func() vec.Vector {
		domain, cons := sparseDomainAndConstraint(d, k)
		src := randx.NewSource(123)
		est, err := NewProjectedRegression(domain, cons, privacy(), 16, src, ProjectedOptions{
			RegressionOptions: RegressionOptions{MaxIterations: 50},
		})
		if err != nil {
			t.Fatal(err)
		}
		gen, _ := linearStream(d, 0.05, k, 10)
		feed(t, est, gen, 16)
		theta, err := est.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		return theta
	}
	if !vec.Equal(run(), run(), 0) {
		t.Fatal("same seed produced different outputs")
	}
}

func TestRobustProjectedRegressionNeutralizesOutliers(t *testing.T) {
	d, k := 32, 2
	domain, cons := sparseDomainAndConstraint(d, k)
	src := randx.NewSource(11)
	oracle := func(x vec.Vector) bool { return vec.NumNonzero(x) <= 2*k }
	est, err := NewRobustProjectedRegression(domain, cons, oracle, privacy(), 24, src, ProjectedOptions{
		RegressionOptions: RegressionOptions{MaxIterations: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Alternate sparse (accepted) and dense (rejected) points.
	sparseGen, _ := linearStream(d, 0.05, k, 12)
	denseGen, _ := linearStream(d, 0.05, 0, 13)
	for i := 0; i < 24; i++ {
		var p loss.Point
		if i%2 == 0 {
			p = sparseGen.Next()
		} else {
			p = denseGen.Next()
		}
		if err := observe(est, p); err != nil {
			t.Fatal(err)
		}
	}
	if est.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", est.Dropped())
	}
	if est.Len() != 24 {
		t.Fatalf("Len = %d, want 24 (dropped points still advance the stream)", est.Len())
	}
	theta, err := est.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if !cons.Contains(theta, 1e-6) {
		t.Fatal("robust estimate not feasible")
	}
	if _, err := NewRobustProjectedRegression(domain, cons, nil, privacy(), 8, src, ProjectedOptions{}); err == nil {
		t.Fatal("nil oracle should be rejected")
	}
}

func TestSvecOuterAndUnpack(t *testing.T) {
	x := vec.Vector{1, -2, 0}
	packed := make([]float64, svecLen(3))
	svecOuter(packed, x)
	r2 := math.Sqrt2
	want := []float64{1, -2 * r2, 0, 4, 0, 0}
	for i := range want {
		if packed[i] != want[i] {
			t.Fatalf("svecOuter = %v, want %v", packed, want)
		}
	}
	// Unpacking in place must reproduce the symmetric matrix entry for entry.
	q := vec.NewMatrix(3, 3)
	copy(q.Data(), []float64{1, 5 * r2, 6 * r2, 2, 7 * r2, 3})
	unpackSvec(q)
	wantQ := [][]float64{{1, 5, 6}, {5, 2, 7}, {6, 7, 3}}
	for i := range wantQ {
		for j := range wantQ[i] {
			if math.Abs(q.At(i, j)-wantQ[i][j]) > 1e-12 {
				t.Fatalf("unpackSvec(%d,%d) = %v, want %v", i, j, q.At(i, j), wantQ[i][j])
			}
		}
	}
	dst := vec.NewVector(2)
	if y := clampInto(dst, vec.Vector{3, 4}, 7); y != 1 {
		t.Fatalf("clampInto y = %v, want 1", y)
	}
	if n := vec.Norm2(dst); n > 1+1e-12 {
		t.Fatalf("clampInto did not rescale into the unit ball: norm %v", n)
	}
}
