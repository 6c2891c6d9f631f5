package erm

import (
	"math"
	"testing"

	"privreg/internal/constraint"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// Tests of Solver.Descend, the averaged (noisy) projected gradient loop, on
// f(θ) = ‖θ - c‖² with closed-form minimizers.

// quadratic returns value and gradient closures for f(θ) = ‖θ - c‖².
func quadratic(center vec.Vector) (func(vec.Vector) float64, func(dst, theta vec.Vector, k int)) {
	value := func(th vec.Vector) float64 {
		d := vec.Sub(th, center)
		return vec.Dot(d, d)
	}
	grad := func(dst, th vec.Vector, _ int) {
		for i := range dst {
			dst[i] = 2 * (th[i] - center[i])
		}
	}
	return value, grad
}

func TestDescendConvergesInteriorOptimum(t *testing.T) {
	d := 8
	c := constraint.NewL2Ball(d, 1)
	center := vec.NewVector(d)
	center[0], center[1] = 0.3, -0.2 // inside the ball
	value, grad := quadratic(center)
	theta := NewSolver(c).Descend(nil, 800, DefaultStepSize(c.Diameter(), 800, 0, 4), 1e-12, grad)
	if value(theta) > 1e-3 {
		t.Fatalf("did not converge: f=%v at %v", value(theta), theta)
	}
}

func TestDescendConvergesBoundaryOptimum(t *testing.T) {
	// Optimum of the unconstrained quadratic lies outside C; the constrained
	// optimum is the projection of the center onto the ball.
	d := 5
	c := constraint.NewL2Ball(d, 1)
	center := vec.NewVector(d)
	center.Fill(2)
	value, grad := quadratic(center)
	want := vec.NewVector(d)
	c.ProjectInto(want, center, nil)
	theta := NewSolver(c).Descend(nil, 2000, DefaultStepSize(c.Diameter(), 2000, 0, 12), 1e-12, grad)
	if vec.Dist2(theta, want) > 1e-2 {
		t.Fatalf("constrained optimum %v, want %v (f=%v)", theta, want, value(theta))
	}
}

// TestDescendRespectsConstraint runs the loop over a set without in-place
// projection (the copying fallback) with noisy gradients.
func TestDescendRespectsConstraint(t *testing.T) {
	src := randx.NewSource(1)
	d := 6
	c := constraint.NewL1Ball(d, 1)
	center := vec.NewVector(d)
	center.Fill(1)
	_, grad := quadratic(center)
	noisy := func(dst, th vec.Vector, k int) {
		grad(dst, th, k)
		for i := range dst {
			dst[i] += src.Normal(0, 0.5)
		}
	}
	theta := NewSolver(c).Descend(nil, 200, DefaultStepSize(c.Diameter(), 200, 0.5, 10), 0, noisy)
	if !c.Contains(theta, 1e-6) {
		t.Fatalf("average iterate %v outside the constraint set", theta)
	}
}

// TestDescendSatisfiesPropositionB1 checks the quantitative guarantee: with
// gradient error bounded by α the excess objective after r steps is at most
// (α+L)‖C‖/√r + α‖C‖ (allowing a small slack for the high-probability nature
// of the bound).
func TestDescendSatisfiesPropositionB1(t *testing.T) {
	src := randx.NewSource(2)
	d := 10
	c := constraint.NewL2Ball(d, 1)
	center := vec.NewVector(d)
	center[0] = 0.5
	value, grad := quadratic(center)
	lip := 2 * (1 + 0.5) // ‖∇f‖ ≤ 2(‖θ‖+‖c‖) over the ball
	sv := NewSolver(c)
	for _, alpha := range []float64{0.05, 0.3} {
		for _, r := range []int{25, 100, 400} {
			noisy := func(dst, th vec.Vector, k int) {
				grad(dst, th, k)
				dir := vec.Vector(src.UnitSphere(d))
				vec.Axpy(dst, alpha*src.Float64(), dir)
			}
			theta := sv.Descend(nil, r, DefaultStepSize(c.Diameter(), r, alpha, lip), 0, noisy)
			excess := value(theta) - 0 // optimum value is 0 at the interior center
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

func TestDescendRejectsBadArguments(t *testing.T) {
	sv := NewSolver(constraint.NewL2Ball(2, 1))
	_, grad := quadratic(vec.Vector{0, 0})
	for name, call := range map[string]func(){
		"zero iterations":       func() { sv.Descend(nil, 0, 1, 0, grad) },
		"wrong-dimension start": func() { sv.Descend(vec.Vector{1, 2, 3}, 1, 1, 0, grad) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", name)
				}
			}()
			call()
		}()
	}
}

func TestDescendWarmStartFromOptimumStaysPut(t *testing.T) {
	d := 4
	c := constraint.NewL2Ball(d, 1)
	center := vec.NewVector(d)
	center[0] = 0.4
	value, grad := quadratic(center)
	theta := NewSolver(c).Descend(center, 50, DefaultStepSize(c.Diameter(), 50, 0, 3), 0, grad)
	if value(theta) > 1e-10 {
		t.Fatalf("started at the optimum but drifted to f=%v", value(theta))
	}
}

// TestDescendToleranceStopReturnsFinalIterate pins the two outputs: without
// the stop the loop returns the iterate average, which carries the early
// transient; with it a converged noise-free run returns its final iterate,
// which is closer to the optimum.
func TestDescendToleranceStopReturnsFinalIterate(t *testing.T) {
	d := 3
	c := constraint.NewL2Ball(d, 1)
	center := vec.NewVector(d)
	center[0] = 0.2
	_, grad := quadratic(center)
	sv := NewSolver(c)
	step := DefaultStepSize(c.Diameter(), 2000, 0, 3)
	avg := sv.Descend(nil, 2000, step, 0, grad).Clone()
	last := sv.Descend(nil, 2000, step, 1e-10, grad)
	if !c.Contains(avg, 1e-9) || !c.Contains(last, 1e-9) {
		t.Fatal("iterates must be feasible")
	}
	if vec.Dist2(last, center) >= vec.Dist2(avg, center) {
		t.Fatalf("final iterate (%v from the optimum) not closer than the average (%v)", vec.Dist2(last, center), vec.Dist2(avg, center))
	}
}

// TestDescendAllocs pins the loop allocation-free over a set that projects
// in place: every vector lives in the solver's workspace.
func TestDescendAllocs(t *testing.T) {
	c := constraint.NewL2Ball(16, 1)
	center := vec.NewVector(16)
	center.Fill(1)
	_, grad := quadratic(center)
	sv := NewSolver(c)
	step := DefaultStepSize(c.Diameter(), 400, 0, 34)
	if allocs := testing.AllocsPerRun(20, func() { sv.Descend(nil, 400, step, 0, grad) }); allocs != 0 {
		t.Fatalf("Descend allocates %.1f times over an L2 ball", allocs)
	}
}
