package constraint

import (
	"fmt"
	"math"

	"privreg/internal/vec"
)

// LpBall is the ball {θ : ‖θ‖_p ≤ r} for 1 ≤ p ≤ ∞. For p strictly between 1
// and 2 these sets interpolate between the Lasso and ridge constraint sets and
// are discussed in Section 5.2 of the paper; their Gaussian width scales as
// r·d^{1-1/p}.
//
// Projection onto an Lp ball has no closed form for general p; this
// implementation solves the KKT system by bisection on the Lagrange multiplier
// λ, with an inner per-coordinate Newton solve. The result is accurate to the
// configured tolerance (1e-10 on the constraint value) and is exercised by
// property-based tests.
type LpBall struct {
	d int
	p float64
	r float64
}

// NewLpBall returns the radius-r Lp ball in R^d. p must lie in [1, +Inf].
func NewLpBall(d int, p, r float64) *LpBall {
	if d <= 0 || !isSize(r) {
		panic("constraint: LpBall requires positive dimension and radius")
	}
	if !(p >= 1) {
		panic("constraint: LpBall requires p >= 1")
	}
	return &LpBall{d: d, p: p, r: r}
}

// Name implements Set.
func (b *LpBall) Name() string { return fmt.Sprintf("LpBall(p=%g, r=%g, d=%d)", b.p, b.r, b.d) }

// Dim implements Set.
func (b *LpBall) Dim() int { return b.d }

// ProjectInto implements Set. At p = 1, 2 and ∞ it runs the L1, L2 and box
// projections.
func (b *LpBall) ProjectInto(dst, x vec.Vector, s *Scratch) {
	checkDims("LpBall", b.d, dst, x)
	switch {
	case b.Contains(x, 0):
		copy(dst, x)
	case b.p == 1:
		projectL1Into(dst, x, b.r, s.floats(b.d))
	case b.p == 2:
		projectL2Into(dst, x, b.r)
	case math.IsInf(b.p, 1):
		clampInto(dst, x, b.r)
	default:
		b.projectGeneral(dst, x, s.floats(2*b.d))
	}
}

// projectGeneral writes the projection onto the Lp ball for 1 < p < ∞,
// p ≠ 2, into dst, using buf (2d slots). The KKT conditions of
// min ‖y-x‖²/2 s.t. ‖y‖_p^p ≤ r^p give, for λ ≥ 0,
//
//	y_i - x_i + λ p sign(y_i) |y_i|^{p-1} = 0,
//
// with sign(y_i) = sign(x_i) and |y_i| solving the scalar monotone equation
// u + λ p u^{p-1} = |x_i| on u ≥ 0. For fixed λ the constraint value
// Σ u_i(λ)^p is continuous and strictly decreasing in λ, so the outer problem
// is a one-dimensional root find handled by bisection.
func (b *LpBall) projectGeneral(dst, x vec.Vector, buf []float64) {
	p := b.p
	target := math.Pow(b.r, p)
	absX, u := buf[:b.d], buf[b.d:]
	for i, v := range x {
		absX[i] = math.Abs(v)
	}
	// constraintValue writes u(λ) into u and returns Σ u_i^p.
	constraintValue := func(lambda float64) float64 {
		var sum float64
		for i, a := range absX {
			u[i] = solveScalarLp(a, lambda, p)
			sum += math.Pow(u[i], p)
		}
		return sum
	}
	// Bracket λ: at λ = 0 the value is ‖x‖_p^p > r^p (we only reach here when x
	// is outside); grow hi until the value drops below target.
	lo, hi := 0.0, 1.0
	for v := constraintValue(hi); v > target; v = constraintValue(hi) {
		hi *= 2
		if hi > 1e18 {
			break
		}
	}
	// u holds the last bisection point's solution.
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		val := constraintValue(mid)
		if math.Abs(val-target) <= 1e-12*(1+target) {
			break
		}
		if val > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	for i, v := range x {
		if v >= 0 {
			dst[i] = u[i]
		} else {
			dst[i] = -u[i]
		}
	}
}

// solveScalarLp solves u + λ p u^{p-1} = a for u ≥ 0 by Newton's method with a
// bisection safeguard. a ≥ 0, λ ≥ 0, p > 1.
func solveScalarLp(a, lambda, p float64) float64 {
	if a == 0 || lambda == 0 {
		if lambda == 0 {
			return a
		}
		return 0
	}
	f := func(u float64) float64 { return u + lambda*p*math.Pow(u, p-1) - a }
	lo, hi := 0.0, a // f(0) = -a < 0 (for p>1, u^{p-1}→0), f(a) ≥ 0.
	u := a / 2
	for iter := 0; iter < 100; iter++ {
		fu := f(u)
		if math.Abs(fu) <= 1e-14*(1+a) {
			return u
		}
		if fu > 0 {
			hi = u
		} else {
			lo = u
		}
		// Newton step with safeguard.
		deriv := 1 + lambda*p*(p-1)*math.Pow(u, p-2)
		next := u - fu/deriv
		if !(next > lo && next < hi) || math.IsNaN(next) {
			next = (lo + hi) / 2
		}
		u = next
	}
	return u
}

// Contains implements Set.
func (b *LpBall) Contains(x vec.Vector, tol float64) bool {
	checkDim("LpBall", b.d, x)
	return vec.NormP(x, b.p) <= b.r+tol
}

// Diameter implements Set. For p ≥ 2 the maximum L2 norm is r·d^{1/2-1/p}
// (attained at the "diagonal" corner); for p ≤ 2 it is r (attained at ±r·e_i).
func (b *LpBall) Diameter() float64 {
	if b.p >= 2 {
		if math.IsInf(b.p, 1) {
			return b.r * math.Sqrt(float64(b.d))
		}
		return b.r * math.Pow(float64(b.d), 0.5-1/b.p)
	}
	return b.r
}

// GaussianWidth implements Set: w(rB_p) = r·E‖g‖_q ≈ r·d^{1-1/p} for the dual
// exponent q = p/(p-1) (with the usual conventions at p = 1 and p = ∞).
func (b *LpBall) GaussianWidth() float64 {
	switch {
	case b.p == 1:
		return b.r * expectedMaxAbsGaussian(b.d)
	case math.IsInf(b.p, 1):
		return b.r * float64(b.d) * math.Sqrt(2/math.Pi)
	case b.p == 2:
		return b.r * expectedNormGaussian(b.d)
	default:
		return b.r * math.Pow(float64(b.d), 1-1/b.p)
	}
}

// SupportFunction implements Set: by Hölder duality, sup over the Lp ball of
// <a, g> is r‖g‖_q with 1/p + 1/q = 1.
func (b *LpBall) SupportFunction(g vec.Vector) float64 {
	checkDim("LpBall", b.d, g)
	switch {
	case b.p == 1:
		return b.r * vec.NormInf(g)
	case math.IsInf(b.p, 1):
		return b.r * vec.Norm1(g)
	default:
		q := b.p / (b.p - 1)
		return b.r * vec.NormP(g, q)
	}
}

// Scale implements Set.
func (b *LpBall) Scale(s float64) Set {
	if s <= 0 {
		panic("constraint: scale must be positive")
	}
	return NewLpBall(b.d, b.p, s*b.r)
}
