package constraint

import (
	"fmt"
	"math"
	"slices"

	"privreg/internal/vec"
)

// projectSimplexInto writes the Euclidean projection of x onto the scaled
// probability simplex {w : w_i ≥ 0, Σ w_i = z} into dst (which may alias x),
// by the sorting algorithm of Held, Wolfe and Crowder (popularized by Duchi et
// al.) in O(d log d), sorting in sorted (len(x) slots). With abs it projects
// |x| and restores x's signs, sign(x_i)·max(|x_i| − θ, 0): the projection of
// a point outside the L1 ball of radius z.
func projectSimplexInto(dst, x vec.Vector, z float64, abs bool, sorted []float64) {
	for i, v := range x {
		if abs {
			v = math.Abs(v)
		}
		sorted[i] = v
	}
	slices.Sort(sorted)
	var cssv, theta float64
	ok := false
	for i := range sorted {
		v := sorted[len(sorted)-1-i] // descending
		cssv += v
		if t := (cssv - z) / float64(i+1); v-t > 0 {
			theta, ok = t, true
		}
	}
	for i, v := range x {
		a := v
		if abs {
			a = math.Abs(v)
		}
		// No coordinate stays positive only for NaN or infinite entries;
		// the projection then falls back to the uniform z/d.
		w := z / float64(len(x))
		if ok {
			w = 0
			if a-theta > 0 {
				w = a - theta
			}
		}
		if abs && !(v >= 0) {
			w = -w
		}
		dst[i] = w
	}
}

// projectL1Into writes the projection of x onto the L1 ball of radius r into
// dst (which may alias x), sorting in sorted (len(x) slots).
func projectL1Into(dst, x vec.Vector, r float64, sorted []float64) {
	if vec.Norm1(x) <= r {
		copy(dst, x)
		return
	}
	projectSimplexInto(dst, x, r, true, sorted)
}

// L1Ball is the cross-polytope {θ : ‖θ‖₁ ≤ r}, the constraint set of Lasso
// regression. Its Gaussian width is Θ(r√(log d)), which is what makes the
// dimension-free bounds of Theorem 5.7 possible.
type L1Ball struct {
	d int
	r float64
}

// NewL1Ball returns the radius-r L1 ball in R^d.
func NewL1Ball(d int, r float64) *L1Ball {
	if d <= 0 || r <= 0 {
		panic("constraint: L1Ball requires positive dimension and radius")
	}
	return &L1Ball{d: d, r: r}
}

// Name implements Set.
func (b *L1Ball) Name() string { return fmt.Sprintf("L1Ball(r=%g, d=%d)", b.r, b.d) }

// Dim implements Set.
func (b *L1Ball) Dim() int { return b.d }

// Radius returns the L1 radius.
func (b *L1Ball) Radius() float64 { return b.r }

// ProjectInto implements Set.
func (b *L1Ball) ProjectInto(dst, x vec.Vector, s *Scratch) {
	checkDims("L1Ball", b.d, dst, x)
	projectL1Into(dst, x, b.r, s.floats(b.d))
}

// Contains implements Set.
func (b *L1Ball) Contains(x vec.Vector, tol float64) bool {
	checkDim("L1Ball", b.d, x)
	return vec.Norm1(x) <= b.r+tol
}

// Diameter implements Set: the maximum L2 norm on the L1 ball is attained at a
// vertex ±r·e_i, so ‖C‖ = r.
func (b *L1Ball) Diameter() float64 { return b.r }

// GaussianWidth implements Set: w(rB₁) = r·E max_i |g_i| = Θ(r√(log d)).
func (b *L1Ball) GaussianWidth() float64 { return b.r * expectedMaxAbsGaussian(b.d) }

// SupportFunction implements Set: sup over the L1 ball is r‖g‖_∞.
func (b *L1Ball) SupportFunction(g vec.Vector) float64 {
	checkDim("L1Ball", b.d, g)
	return b.r * vec.NormInf(g)
}

// MinkowskiNorm implements Set: ‖x‖_C = ‖x‖₁ / r.
func (b *L1Ball) MinkowskiNorm(x vec.Vector) float64 {
	checkDim("L1Ball", b.d, x)
	return vec.Norm1(x) / b.r
}

// Scale implements Set.
func (b *L1Ball) Scale(s float64) Set {
	if s <= 0 {
		panic("constraint: scale must be positive")
	}
	return NewL1Ball(b.d, s*b.r)
}

// Simplex is the scaled probability simplex {θ : θ_i ≥ 0, Σ θ_i = z}. With
// z = 1 this is the standard probability simplex discussed in Section 5.2.
// Note that the simplex does not contain the origin, so its Minkowski
// functional is finite only on the non-negative orthant.
type Simplex struct {
	d int
	z float64
}

// NewSimplex returns the probability simplex in R^d scaled to total mass z.
func NewSimplex(d int, z float64) *Simplex {
	if d <= 0 || z <= 0 {
		panic("constraint: Simplex requires positive dimension and mass")
	}
	return &Simplex{d: d, z: z}
}

// Name implements Set.
func (s *Simplex) Name() string { return fmt.Sprintf("Simplex(z=%g, d=%d)", s.z, s.d) }

// Dim implements Set.
func (s *Simplex) Dim() int { return s.d }

// ProjectInto implements Set.
func (s *Simplex) ProjectInto(dst, x vec.Vector, sc *Scratch) {
	checkDims("Simplex", s.d, dst, x)
	projectSimplexInto(dst, x, s.z, false, sc.floats(s.d))
}

// Contains implements Set.
func (s *Simplex) Contains(x vec.Vector, tol float64) bool {
	checkDim("Simplex", s.d, x)
	var sum float64
	for _, v := range x {
		if v < -tol {
			return false
		}
		sum += v
	}
	return math.Abs(sum-s.z) <= tol*float64(s.d)+tol
}

// Diameter implements Set: the farthest point from the origin is a vertex z·e_i.
func (s *Simplex) Diameter() float64 { return s.z }

// GaussianWidth implements Set: w(simplex) = z·E max_i g_i = Θ(z√(log d)).
func (s *Simplex) GaussianWidth() float64 {
	// E max_i g_i is roughly half of E max_i |g_i| plus lower-order terms; the
	// √(2 ln d) asymptotic is the same and the constant here is accurate enough
	// for the width-driven parameter choices.
	if s.d == 1 {
		return 0
	}
	return s.z * math.Sqrt(2*math.Log(float64(s.d)))
}

// SupportFunction implements Set: sup over the simplex is z·max_i g_i.
func (s *Simplex) SupportFunction(g vec.Vector) float64 {
	checkDim("Simplex", s.d, g)
	m, _ := vec.Max(g)
	return s.z * m
}

// MinkowskiNorm implements Set: for x ≥ 0 (entrywise) the smallest ρ with
// x ∈ ρ·Simplex is Σ x_i / z; otherwise no scaling works and +Inf is returned.
func (s *Simplex) MinkowskiNorm(x vec.Vector) float64 {
	checkDim("Simplex", s.d, x)
	var sum float64
	for _, v := range x {
		if v < 0 {
			return math.Inf(1)
		}
		sum += v
	}
	return sum / s.z
}

// Scale implements Set.
func (s *Simplex) Scale(c float64) Set {
	if c <= 0 {
		panic("constraint: scale must be positive")
	}
	return NewSimplex(s.d, c*s.z)
}
