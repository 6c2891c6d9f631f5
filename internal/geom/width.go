// Package geom provides the geometric tools of Section 5 of the paper: the
// Gordon-embedding dimension rule (Theorem 5.1), empirical distortion
// measurement for random projections, and the lifting-error bound of
// Theorem 5.3.
package geom

import (
	"math"

	"privreg/internal/constraint"
	"privreg/internal/vec"
)

// GordonDimension returns the embedding dimension m prescribed by Gordon's
// theorem (Theorem 5.1): to preserve all squared norms of a set of Gaussian
// width w up to relative error γ with failure probability β one needs
//
//	m ≥ (C/γ²) · max{w², log(1/β)}.
//
// The constant C is taken to be 1, matching the Θ(·) setting used in
// Algorithm 3; callers that need more head-room can scale the result.
// The returned dimension is clamped to [1, ambient].
func GordonDimension(width, gamma, beta float64, ambient int) int {
	if gamma <= 0 || gamma >= 1 {
		panic("geom: GordonDimension requires gamma in (0,1)")
	}
	if beta <= 0 || beta >= 1 {
		panic("geom: GordonDimension requires beta in (0,1)")
	}
	need := math.Max(width*width, math.Log(1/beta)) / (gamma * gamma)
	m := int(math.Ceil(need))
	if m < 1 {
		m = 1
	}
	if ambient > 0 && m > ambient {
		m = ambient
	}
	return m
}

// ProjectionGamma returns the distortion parameter γ used by Algorithm 3 of the
// paper: γ = W^{1/3} / T^{1/3}, where W = w(X) + w(C) and T is the stream
// length. The value is clamped to (0, 1/2] so that the embedding guarantees
// remain meaningful for very short streams or very wide sets.
func ProjectionGamma(width float64, streamLen int) float64 {
	if streamLen < 1 {
		streamLen = 1
	}
	g := math.Cbrt(width) / math.Cbrt(float64(streamLen))
	if g > 0.5 {
		g = 0.5
	}
	if g <= 0 || math.IsNaN(g) {
		g = 0.5
	}
	return g
}

// NormDistortion measures the worst relative squared-norm distortion
// max_i |‖Φx_i‖² - ‖x_i‖²| / ‖x_i‖² of a projection over a list of test points.
// Zero-norm points are skipped. It is the quantity bounded by Gordon's theorem
// and is what experiment E8 sweeps against m.
func NormDistortion(project func(vec.Vector) vec.Vector, points []vec.Vector) float64 {
	var worst float64
	for _, x := range points {
		n2 := vec.Dot(x, x)
		if n2 == 0 {
			continue
		}
		px := project(x)
		p2 := vec.Dot(px, px)
		if rel := math.Abs(p2-n2) / n2; rel > worst {
			worst = rel
		}
	}
	return worst
}

// LiftErrorBound returns the high-probability bound of Theorem 5.3 on the
// Euclidean error of recovering u from Φu by Minkowski-functional minimization:
//
//	‖u - û‖ = O( w(C)/√m + ‖C‖·√(log(1/β))/√m ).
//
// The implied constant is taken to be 1.
func LiftErrorBound(c constraint.Set, m int, beta float64) float64 {
	if m <= 0 {
		panic("geom: LiftErrorBound requires positive projection dimension")
	}
	if beta <= 0 || beta >= 1 {
		panic("geom: LiftErrorBound requires beta in (0,1)")
	}
	sm := math.Sqrt(float64(m))
	return c.GaussianWidth()/sm + c.Diameter()*math.Sqrt(math.Log(1/beta))/sm
}
