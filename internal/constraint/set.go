// Package constraint implements the convex constraint sets C and input domains
// X used by the private incremental regression mechanisms, together with the
// geometric operations the algorithms need: Euclidean projection (for projected
// gradient descent), the Minkowski functional ‖·‖_C (for the lifting step of
// Algorithm 3), the support function (for Monte-Carlo Gaussian-width
// estimation), analytic Gaussian widths, and L2 diameters. Projection is
// Set.ProjectInto(dst, x, s), which writes into dst (dst may alias x) and
// takes its temporaries from a Scratch the caller holds beside its other
// workspace, since sets are shared across streams; with a warm scratch every
// set projects without allocating.
//
// The sets provided cover every example discussed in Section 5.2 of the paper:
// L2 balls (ridge regression), L1 balls (Lasso), the probability simplex,
// Lp balls for 1 < p < 2, polytopes given as convex hulls of vertices,
// group/block-L1 balls, axis-aligned boxes, and the (non-convex) set of
// k-sparse unit vectors used as a low-Gaussian-width input domain X.
package constraint

import (
	"fmt"
	"math"

	"privreg/internal/vec"
)

// Set is a (usually convex) subset of R^d together with the geometric
// operations used throughout the library. Implementations must be immutable
// after construction and safe for concurrent use.
type Set interface {
	// Name returns a short human-readable description, e.g. "L1Ball(r=1, d=20)".
	Name() string
	// Dim returns the ambient dimension d.
	Dim() int
	// ProjectInto writes the Euclidean projection of x onto the set into dst,
	// which may alias x. Its temporaries come from s (nil: transient
	// buffers); with a warm s it does not allocate.
	ProjectInto(dst, x vec.Vector, s *Scratch)
	// Contains reports whether x belongs to the set up to tolerance tol.
	Contains(x vec.Vector, tol float64) bool
	// Diameter returns ‖C‖ = sup_{θ∈C} ‖θ‖₂ (Definition 2 of the paper).
	Diameter() float64
	// GaussianWidth returns (an analytic estimate of) the Gaussian width
	// w(C) = E_g sup_{a∈C} <a, g> (Definition 3 of the paper).
	GaussianWidth() float64
	// SupportFunction returns sup_{a∈C} <a, g> for the given direction g. It is
	// exact for every provided set and is what the Monte-Carlo width estimator
	// in internal/geom averages.
	SupportFunction(g vec.Vector) float64
	// Scale returns the scaled set sC = {s·θ : θ ∈ C} for s > 0.
	Scale(s float64) Set
}

// Scratch is the caller-held workspace of ProjectInto: growable buffers that
// a projection takes its temporaries from. The zero value is ready to use.
// It keeps no state between projections, so one scratch serves any sequence
// of sets and dimensions; it is not safe for concurrent use.
type Scratch struct {
	f   []float64
	idx []int
}

// floats returns n float64 slots holding stale values, from s's buffer (grown
// when short) or, when s is nil, newly allocated.
func (s *Scratch) floats(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	if cap(s.f) < n {
		s.f = make([]float64, n)
	}
	return s.f[:n]
}

// ints is floats for int slots.
func (s *Scratch) ints(n int) []int {
	if s == nil {
		return make([]int, n)
	}
	if cap(s.idx) < n {
		s.idx = make([]int, n)
	}
	return s.idx[:n]
}

// isSize reports whether r can size a set (a radius, half-width or mass): a
// positive finite number. NaN and +Inf are not.
func isSize(r float64) bool { return r > 0 && !math.IsInf(r, 1) }

// checkDim panics with a descriptive message when the vector dimension does not
// match the set's ambient dimension.
func checkDim(setName string, d int, x vec.Vector) {
	if len(x) != d {
		panic(fmt.Sprintf("constraint: %s expects dimension %d, got %d", setName, d, len(x)))
	}
}

// checkDims is checkDim for both vectors of a projection.
func checkDims(setName string, d int, dst, x vec.Vector) {
	checkDim(setName, d, dst)
	checkDim(setName, d, x)
}

// projectL2Into writes x, rescaled onto the radius-r sphere when it lies
// outside it, into dst.
func projectL2Into(dst, x vec.Vector, r float64) {
	copy(dst, x)
	if n := vec.Norm2(dst); n > r {
		dst.Scale(r / n)
	}
}

// clampInto writes x with every coordinate clamped to [-c, c] into dst.
func clampInto(dst, x vec.Vector, c float64) {
	for i, v := range x {
		if v > c {
			v = c
		} else if v < -c {
			v = -c
		}
		dst[i] = v
	}
}

// expectedNormGaussian returns E‖g‖₂ for g ~ N(0, I_d). We use the tight and
// simple bounds d/√(d+1) ≤ E‖g‖ ≤ √d and return √d · √(d/(d+1)) which is within
// a fraction of a percent of the exact value for all d ≥ 1.
func expectedNormGaussian(d int) float64 {
	fd := float64(d)
	return math.Sqrt(fd) * math.Sqrt(fd/(fd+1))
}

// expectedMaxAbsGaussian returns (an accurate estimate of) E max_i |g_i| for
// g ~ N(0, I_d), the Gaussian width of the unit L1 ball.
func expectedMaxAbsGaussian(d int) float64 {
	if d <= 0 {
		return 0
	}
	if d == 1 {
		return math.Sqrt(2 / math.Pi)
	}
	// The standard asymptotic √(2 ln(2d)) slightly overshoots for small d; the
	// correction term below keeps the estimate within a few percent across the
	// whole range of dimensions used in the experiments.
	l := math.Sqrt(2 * math.Log(2*float64(d)))
	return l - (math.Log(math.Log(2*float64(d)))+math.Log(4*math.Pi))/(2*l)
}

// L2Ball is the Euclidean ball of radius r centered at the origin:
// {θ ∈ R^d : ‖θ‖₂ ≤ r}. It is the constraint set of ridge regression.
type L2Ball struct {
	d int
	r float64
}

// NewL2Ball returns the radius-r Euclidean ball in R^d.
func NewL2Ball(d int, r float64) *L2Ball {
	if d <= 0 || !isSize(r) {
		panic("constraint: L2Ball requires positive dimension and radius")
	}
	return &L2Ball{d: d, r: r}
}

// Name implements Set.
func (b *L2Ball) Name() string { return fmt.Sprintf("L2Ball(r=%g, d=%d)", b.r, b.d) }

// Dim implements Set.
func (b *L2Ball) Dim() int { return b.d }

// Radius returns the ball radius.
func (b *L2Ball) Radius() float64 { return b.r }

// ProjectInto implements Set: points outside the ball are rescaled onto its
// surface.
func (b *L2Ball) ProjectInto(dst, x vec.Vector, _ *Scratch) {
	checkDims("L2Ball", b.d, dst, x)
	projectL2Into(dst, x, b.r)
}

// Contains implements Set.
func (b *L2Ball) Contains(x vec.Vector, tol float64) bool {
	checkDim("L2Ball", b.d, x)
	return vec.Norm2(x) <= b.r+tol
}

// Diameter implements Set.
func (b *L2Ball) Diameter() float64 { return b.r }

// GaussianWidth implements Set: w(rB₂) = r·E‖g‖ ≈ r√d.
func (b *L2Ball) GaussianWidth() float64 { return b.r * expectedNormGaussian(b.d) }

// SupportFunction implements Set: sup over the ball is r‖g‖₂.
func (b *L2Ball) SupportFunction(g vec.Vector) float64 {
	checkDim("L2Ball", b.d, g)
	return b.r * vec.Norm2(g)
}

// Scale implements Set.
func (b *L2Ball) Scale(s float64) Set {
	if s <= 0 {
		panic("constraint: scale must be positive")
	}
	return NewL2Ball(b.d, s*b.r)
}

// Box is the axis-aligned hypercube {θ : ‖θ‖_∞ ≤ c}.
type Box struct {
	d int
	c float64
}

// NewBox returns the box [-c, c]^d.
func NewBox(d int, c float64) *Box {
	if d <= 0 || !isSize(c) {
		panic("constraint: Box requires positive dimension and half-width")
	}
	return &Box{d: d, c: c}
}

// Name implements Set.
func (b *Box) Name() string { return fmt.Sprintf("Box(c=%g, d=%d)", b.c, b.d) }

// Dim implements Set.
func (b *Box) Dim() int { return b.d }

// ProjectInto implements Set by clamping every coordinate to [-c, c].
func (b *Box) ProjectInto(dst, x vec.Vector, _ *Scratch) {
	checkDims("Box", b.d, dst, x)
	clampInto(dst, x, b.c)
}

// Contains implements Set.
func (b *Box) Contains(x vec.Vector, tol float64) bool {
	checkDim("Box", b.d, x)
	return vec.NormInf(x) <= b.c+tol
}

// Diameter implements Set: the farthest point is a corner at distance c√d.
func (b *Box) Diameter() float64 { return b.c * math.Sqrt(float64(b.d)) }

// GaussianWidth implements Set: w([-c,c]^d) = c·d·E|g| = c·d·√(2/π).
func (b *Box) GaussianWidth() float64 {
	return b.c * float64(b.d) * math.Sqrt(2/math.Pi)
}

// SupportFunction implements Set: sup over the box is c‖g‖₁.
func (b *Box) SupportFunction(g vec.Vector) float64 {
	checkDim("Box", b.d, g)
	return b.c * vec.Norm1(g)
}

// Scale implements Set.
func (b *Box) Scale(s float64) Set {
	if s <= 0 {
		panic("constraint: scale must be positive")
	}
	return NewBox(b.d, s*b.c)
}
