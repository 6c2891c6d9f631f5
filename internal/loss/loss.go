// Package loss defines the per-datapoint loss functions ℓ(θ; z) of the ERM
// framework in Section 1 of the paper, together with the analytic quantities
// the mechanisms rely on: gradients, Lipschitz constants over a constraint set,
// and strong-convexity moduli.
//
// Each loss operates on covariate/response pairs z = (x, y) with x ∈ R^d and
// y ∈ R, which covers linear regression (squared loss), logistic regression,
// and support vector machines (hinge loss) — the three examples the paper lists
// Regularized ERM is obtained by wrapping any loss with L2Regularized.
package loss

import (
	"fmt"
	"math"

	"privreg/internal/constraint"
	"privreg/internal/vec"
)

// Point is a single labelled datapoint z = (x, y).
type Point struct {
	X vec.Vector
	Y float64
}

// Function is a convex per-datapoint loss ℓ(θ; z), convex in θ for every z.
type Function interface {
	// Name returns a short identifier, e.g. "squared".
	Name() string
	// Value returns ℓ(θ; z).
	Value(theta vec.Vector, z Point) float64
	// Gradient returns ∇_θ ℓ(θ; z) as a new vector (a subgradient where the
	// loss is not differentiable).
	Gradient(theta vec.Vector, z Point) vec.Vector
	// Lipschitz returns a bound L on ‖∇ℓ(θ; z)‖ over θ ∈ C and data with
	// ‖x‖ ≤ xBound, |y| ≤ yBound (Definition 8).
	Lipschitz(c constraint.Set, xBound, yBound float64) float64
	// StrongConvexity returns the modulus ν ≥ 0 with which the loss is
	// ν-strongly convex over C for all admissible data (Definition 9); zero for
	// merely convex losses.
	StrongConvexity(c constraint.Set, xBound, yBound float64) float64
}

// Empirical sums a per-datapoint loss over a dataset: J(θ) = Σ_i ℓ(θ; z_i).
func Empirical(f Function, theta vec.Vector, data []Point) float64 {
	var s float64
	for _, z := range data {
		s += f.Value(theta, z)
	}
	return s
}

// EmpiricalGradient sums the per-datapoint gradients over a dataset.
func EmpiricalGradient(f Function, theta vec.Vector, data []Point) vec.Vector {
	if len(data) == 0 {
		return vec.NewVector(len(theta))
	}
	g := vec.NewVector(len(theta))
	for _, z := range data {
		g.AddInPlace(f.Gradient(theta, z))
	}
	return g
}

// Squared is the least-squares loss ℓ(θ; (x, y)) = (y - <x, θ>)².
type Squared struct{}

// Name implements Function.
func (Squared) Name() string { return "squared" }

// Value implements Function.
func (Squared) Value(theta vec.Vector, z Point) float64 {
	r := z.Y - vec.Dot(z.X, theta)
	return r * r
}

// Gradient implements Function: ∇ℓ = -2(y - <x, θ>)·x.
func (Squared) Gradient(theta vec.Vector, z Point) vec.Vector {
	r := z.Y - vec.Dot(z.X, theta)
	return vec.Scaled(z.X, -2*r)
}

// Lipschitz implements Function. For ‖x‖ ≤ B_x, |y| ≤ B_y and ‖θ‖ ≤ ‖C‖ the
// gradient norm is at most 2·B_x·(B_y + B_x‖C‖).
func (Squared) Lipschitz(c constraint.Set, xBound, yBound float64) float64 {
	return 2 * xBound * (yBound + xBound*c.Diameter())
}

// StrongConvexity implements Function. A single squared loss is strongly convex
// only along x; in the worst case over data it is merely convex, so 0 is
// returned (footnote 7 of the paper).
func (Squared) StrongConvexity(constraint.Set, float64, float64) float64 { return 0 }

// Logistic is the logistic-regression loss ℓ(θ; (x, y)) = ln(1 + exp(-y<x, θ>)),
// with labels y ∈ {-1, +1} (any real y works formally).
type Logistic struct{}

// Name implements Function.
func (Logistic) Name() string { return "logistic" }

// Value implements Function.
func (Logistic) Value(theta vec.Vector, z Point) float64 {
	m := z.Y * vec.Dot(z.X, theta)
	// log(1 + e^{-m}) computed stably.
	if m > 35 {
		return math.Exp(-m)
	}
	if m < -35 {
		return -m
	}
	return math.Log1p(math.Exp(-m))
}

// Gradient implements Function: ∇ℓ = -y·σ(-y<x,θ>)·x with σ the sigmoid.
func (Logistic) Gradient(theta vec.Vector, z Point) vec.Vector {
	m := z.Y * vec.Dot(z.X, theta)
	s := sigmoid(-m)
	return vec.Scaled(z.X, -z.Y*s)
}

func sigmoid(t float64) float64 {
	if t >= 0 {
		return 1 / (1 + math.Exp(-t))
	}
	e := math.Exp(t)
	return e / (1 + e)
}

// Lipschitz implements Function: the gradient norm is at most |y|·‖x‖ ≤ B_y·B_x.
func (Logistic) Lipschitz(_ constraint.Set, xBound, yBound float64) float64 {
	if yBound == 0 {
		yBound = 1
	}
	return xBound * yBound
}

// StrongConvexity implements Function: logistic loss is convex but not strongly
// convex in the worst case.
func (Logistic) StrongConvexity(constraint.Set, float64, float64) float64 { return 0 }

// Hinge is the SVM hinge loss ℓ(θ; (x, y)) = max(0, 1 - y<x, θ>).
type Hinge struct{}

// Name implements Function.
func (Hinge) Name() string { return "hinge" }

// Value implements Function.
func (Hinge) Value(theta vec.Vector, z Point) float64 {
	m := 1 - z.Y*vec.Dot(z.X, theta)
	if m > 0 {
		return m
	}
	return 0
}

// Gradient implements Function (a subgradient at the kink).
func (Hinge) Gradient(theta vec.Vector, z Point) vec.Vector {
	m := 1 - z.Y*vec.Dot(z.X, theta)
	if m > 0 {
		return vec.Scaled(z.X, -z.Y)
	}
	return vec.NewVector(len(theta))
}

// Lipschitz implements Function: the subgradient norm is at most |y|·‖x‖.
func (Hinge) Lipschitz(_ constraint.Set, xBound, yBound float64) float64 {
	if yBound == 0 {
		yBound = 1
	}
	return xBound * yBound
}

// StrongConvexity implements Function.
func (Hinge) StrongConvexity(constraint.Set, float64, float64) float64 { return 0 }

// L2Regularized wraps a base loss with an L2 penalty: ℓ'(θ; z) = ℓ(θ; z) +
// (λ/2)‖θ‖². Following footnote 1 of the paper, the per-datapoint regularizer
// corresponds to adding R(θ) = (nλ/2)‖θ‖² to the empirical risk of n points.
// The wrapped loss is λ-strongly convex, which activates the improved bound of
// Theorem 3.1 part 2.
type L2Regularized struct {
	// Base is the underlying per-datapoint loss.
	Base Function
	// Lambda is the per-datapoint regularization weight; must be non-negative.
	Lambda float64
}

// Name implements Function.
func (r L2Regularized) Name() string {
	return fmt.Sprintf("%s+l2(λ=%g)", r.Base.Name(), r.Lambda)
}

// Value implements Function.
func (r L2Regularized) Value(theta vec.Vector, z Point) float64 {
	n := vec.Norm2(theta)
	return r.Base.Value(theta, z) + r.Lambda/2*n*n
}

// Gradient implements Function.
func (r L2Regularized) Gradient(theta vec.Vector, z Point) vec.Vector {
	g := r.Base.Gradient(theta, z)
	vec.Axpy(g, r.Lambda, theta)
	return g
}

// Lipschitz implements Function.
func (r L2Regularized) Lipschitz(c constraint.Set, xBound, yBound float64) float64 {
	return r.Base.Lipschitz(c, xBound, yBound) + r.Lambda*c.Diameter()
}

// StrongConvexity implements Function: the L2 term contributes λ.
func (r L2Regularized) StrongConvexity(c constraint.Set, xBound, yBound float64) float64 {
	return r.Base.StrongConvexity(c, xBound, yBound) + r.Lambda
}

// Interface conformance checks.
var (
	_ Function = Squared{}
	_ Function = Logistic{}
	_ Function = Hinge{}
	_ Function = L2Regularized{}
)
