package optimize

import (
	"math"
	"testing"

	"privreg/internal/constraint"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// quadratic returns value and gradient closures for f(θ) = ‖θ - c‖².
func quadratic(center vec.Vector) (func(vec.Vector) float64, GradientFunc) {
	value := func(th vec.Vector) float64 {
		d := vec.Sub(th, center)
		return vec.Dot(d, d)
	}
	grad := func(th vec.Vector) vec.Vector {
		g := vec.Sub(th, center)
		g.Scale(2)
		return g
	}
	return value, grad
}

func TestProjectedGradientConvergesInteriorOptimum(t *testing.T) {
	d := 8
	c := constraint.NewL2Ball(d, 1)
	center := vec.NewVector(d)
	center[0], center[1] = 0.3, -0.2 // inside the ball
	value, grad := quadratic(center)
	res, err := NoisyProjected(c, grad, Options{Iterations: 800, Lipschitz: 4, GradError: 0, Average: false})
	if err != nil {
		t.Fatal(err)
	}
	if value(res.Theta) > 1e-3 {
		t.Fatalf("did not converge: f=%v at %v", value(res.Theta), res.Theta)
	}
	if res.Iterations != 800 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

func TestProjectedGradientConvergesBoundaryOptimum(t *testing.T) {
	// Optimum of the unconstrained quadratic lies outside C; the constrained
	// optimum is the projection of the center onto the ball.
	d := 5
	c := constraint.NewL2Ball(d, 1)
	center := vec.NewVector(d)
	center.Fill(2)
	value, grad := quadratic(center)
	want := c.Project(center)
	res, err := NoisyProjected(c, grad, Options{Iterations: 2000, Lipschitz: 12, Average: false})
	if err != nil {
		t.Fatal(err)
	}
	if vec.Dist2(res.Theta, want) > 1e-2 {
		t.Fatalf("constrained optimum %v, want %v (f=%v)", res.Theta, want, value(res.Theta))
	}
}

func TestNoisyProjectedRespectsConstraint(t *testing.T) {
	src := randx.NewSource(1)
	d := 6
	c := constraint.NewL1Ball(d, 1)
	center := vec.NewVector(d)
	center.Fill(1)
	_, grad := quadratic(center)
	noisy := func(th vec.Vector) vec.Vector {
		g := grad(th)
		for i := range g {
			g[i] += src.Normal(0, 0.5)
		}
		return g
	}
	res, err := NoisyProjected(c, noisy, Options{Iterations: 200, Lipschitz: 10, GradError: 0.5, Average: true})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Contains(res.Theta, 1e-6) {
		t.Fatalf("average iterate %v outside the constraint set", res.Theta)
	}
	if !c.Contains(res.Last, 1e-6) {
		t.Fatalf("last iterate %v outside the constraint set", res.Last)
	}
}

// TestNoisyProjectedSatisfiesPropositionB1 checks the quantitative guarantee:
// with gradient error bounded by α the excess objective after r steps is at most
// (α+L)‖C‖/√r + α‖C‖ (allowing a small slack for the high-probability nature of
// the bound).
func TestNoisyProjectedSatisfiesPropositionB1(t *testing.T) {
	src := randx.NewSource(2)
	d := 10
	c := constraint.NewL2Ball(d, 1)
	center := vec.NewVector(d)
	center[0] = 0.5
	value, grad := quadratic(center)
	lip := 2 * (1 + 0.5) // ‖∇f‖ ≤ 2(‖θ‖+‖c‖) over the ball
	for _, alpha := range []float64{0.05, 0.3} {
		for _, r := range []int{25, 100, 400} {
			noisy := func(th vec.Vector) vec.Vector {
				g := grad(th)
				dir := vec.Vector(src.UnitSphere(d))
				vec.Axpy(g, alpha*src.Float64(), dir)
				return g
			}
			res, err := NoisyProjected(c, noisy, Options{Iterations: r, Lipschitz: lip, GradError: alpha, Average: true})
			if err != nil {
				t.Fatal(err)
			}
			excess := value(res.Theta) - 0 // optimum value is 0 at the interior center
			bound := (alpha+lip)*c.Diameter()/math.Sqrt(float64(r)) + alpha*c.Diameter()
			if excess > 1.5*bound {
				t.Fatalf("alpha=%v r=%d: excess %v exceeds 1.5× the Proposition B.1 bound %v", alpha, r, excess, bound)
			}
		}
	}
}

func TestDefaultStepSizeAndIterationRule(t *testing.T) {
	if got := DefaultStepSize(2, 100, 1, 3); math.Abs(got-2.0/(10*4)) > 1e-12 {
		t.Fatalf("DefaultStepSize = %v", got)
	}
	if got := DefaultStepSize(2, 100, 0, 0); got != 1 {
		t.Fatalf("degenerate DefaultStepSize = %v", got)
	}
	// Corollary B.2: r = (1 + L/α)², clamped.
	if got := IterationsForTargetError(9, 3, 1, 1000); got != 16 {
		t.Fatalf("IterationsForTargetError = %d, want 16", got)
	}
	if got := IterationsForTargetError(9, 3, 50, 1000); got != 50 {
		t.Fatalf("min clamp failed: %d", got)
	}
	if got := IterationsForTargetError(1e6, 1, 1, 200); got != 200 {
		t.Fatalf("max clamp failed: %d", got)
	}
	if got := IterationsForTargetError(5, 0, 1, 300); got != 300 {
		t.Fatalf("zero gradient error should hit max iterations: %d", got)
	}
}

func TestOptionsValidation(t *testing.T) {
	c := constraint.NewL2Ball(2, 1)
	_, grad := quadratic(vec.Vector{0, 0})
	if _, err := NoisyProjected(nil, grad, Options{Iterations: 1}); err == nil {
		t.Fatal("nil constraint should error")
	}
	if _, err := NoisyProjected(c, nil, Options{Iterations: 1}); err == nil {
		t.Fatal("nil gradient should error")
	}
	if _, err := NoisyProjected(c, grad, Options{Iterations: 0}); err == nil {
		t.Fatal("zero iterations should error")
	}
	if _, err := NoisyProjected(c, grad, Options{Iterations: 1, Start: vec.Vector{1, 2, 3}}); err == nil {
		t.Fatal("wrong-dimension start should error")
	}
	bad := func(vec.Vector) vec.Vector { return vec.Vector{1} }
	if _, err := NoisyProjected(c, bad, Options{Iterations: 1}); err == nil {
		t.Fatal("wrong-dimension gradient should error")
	}
}

func TestWarmStartFromOptimumStaysPut(t *testing.T) {
	d := 4
	c := constraint.NewL2Ball(d, 1)
	center := vec.NewVector(d)
	center[0] = 0.4
	value, grad := quadratic(center)
	res, err := NoisyProjected(c, grad, Options{Iterations: 50, Lipschitz: 3, Start: center, Average: false})
	if err != nil {
		t.Fatal(err)
	}
	if value(res.Theta) > 1e-10 {
		t.Fatalf("started at the optimum but drifted to f=%v", value(res.Theta))
	}
}

func TestAverageVsLastIterate(t *testing.T) {
	d := 3
	c := constraint.NewL2Ball(d, 1)
	center := vec.NewVector(d)
	center[0] = 0.2
	_, grad := quadratic(center)
	avg, err := NoisyProjected(c, grad, Options{Iterations: 100, Lipschitz: 3, Average: true})
	if err != nil {
		t.Fatal(err)
	}
	last, err := NoisyProjected(c, grad, Options{Iterations: 100, Lipschitz: 3, Average: false})
	if err != nil {
		t.Fatal(err)
	}
	// Both must be feasible; the last iterate of a noise-free run should be at
	// least as close to the optimum as the average.
	if vec.Dist2(last.Theta, center) > vec.Dist2(avg.Theta, center)+1e-9 {
		t.Fatalf("last iterate worse than average on a noise-free problem")
	}
}
