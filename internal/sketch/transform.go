package sketch

import (
	"fmt"

	"privreg/internal/constraint"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// Transform is a fixed linear dimensionality-reduction map Φ: R^d → R^m with
// the Johnson–Lindenstrauss property: for any fixed x, ‖Φx‖ ≈ ‖x‖ with high
// probability. Both the dense Gaussian Projector and the fast SRHT implement
// it, so every consumer — the projected mechanisms, the lifting solver, the
// experiments — is backend-agnostic.
//
// The *To variants write into caller-provided buffers and perform no heap
// allocation; they are the per-timestep hot path. A Transform's *To methods
// may share internal scratch and must not be called concurrently on the same
// instance (distinct instances are independent).
type Transform interface {
	// InputDim returns the ambient dimension d.
	InputDim() int
	// OutputDim returns the projected dimension m.
	OutputDim() int
	// Apply returns Φx as a new vector.
	Apply(x vec.Vector) vec.Vector
	// ApplyTo computes dst = Φx without allocating. dst must have length m.
	ApplyTo(dst, x vec.Vector)
	// ApplyTransposeTo computes dst = Φᵀu without allocating. dst must have
	// length d.
	ApplyTransposeTo(dst, u vec.Vector)
	// ScaledApplyTo computes dst = Φx̃ without allocating, where
	// x̃ = (‖x‖/‖Φx‖)·x is the paper's rescaled covariate (footnote 15); by
	// construction ‖Φx̃‖ = ‖x‖.
	ScaledApplyTo(dst, x vec.Vector)
	// SpectralUpper returns a cached upper bound on the spectral norm ‖Φ‖, used
	// for optimizer step sizes.
	SpectralUpper() float64
	// ImageSet returns a constraint set in R^m containing the image ΦC, used as
	// the optimization domain of Algorithm 3.
	ImageSet(c constraint.Set, gamma float64) constraint.Set
	// Lift solves the Step-9 convex program min ‖θ‖_C s.t. Φθ ≈ target.
	Lift(c constraint.Set, target vec.Vector, opts LiftOptions) (vec.Vector, error)
}

// Backend selects the sketch implementation used by a mechanism.
type Backend int

const (
	// BackendDense is the paper's dense Gaussian JL projection: an m×d matrix
	// of i.i.d. N(0, 1/m) entries, O(m·d) per apply. The default.
	BackendDense Backend = iota
	// BackendSRHT is the subsampled randomized Hadamard transform: random sign
	// flips, a fast Walsh–Hadamard transform, and uniform row subsampling,
	// O(d log d) per apply with the same norm-preservation guarantee up to log
	// factors ("Private Sketches for Linear Regression", Das et al.).
	BackendSRHT
)

// String implements fmt.Stringer for diagnostics and benchmark labels.
func (b Backend) String() string {
	switch b {
	case BackendDense:
		return "dense"
	case BackendSRHT:
		return "srht"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// New constructs a Transform of the requested backend mapping R^d → R^m,
// consuming randomness from src.
func New(b Backend, m, d int, src *randx.Source) (Transform, error) {
	switch b {
	case BackendDense:
		return NewProjector(m, d, src)
	case BackendSRHT:
		return NewSRHT(m, d, src)
	default:
		return nil, fmt.Errorf("sketch: unknown backend %d", int(b))
	}
}

// Spec identifies a Transform up to exact reconstruction: the requested
// backend, the shape, and the seed of the randomness source it was sampled
// from. Because transforms are immutable after construction, the spec is their
// entire serializable state — checkpoints persist a Spec instead of the m×d
// matrix (or sign/row tables) and rebuild the identical transform on restore.
type Spec struct {
	// Backend is the backend the transform was built with.
	Backend Backend
	// OutputDim and InputDim are the transform's shape (m and d).
	OutputDim, InputDim int
	// Seed seeds the source the transform's randomness was drawn from.
	Seed int64
}

// New reconstructs the transform the spec describes. A transform built from
// the spec of a previous construction is identical to the original: same
// matrix entries (dense) or sign/row tables (SRHT).
func (s Spec) New() (Transform, error) {
	return New(s.Backend, s.OutputDim, s.InputDim, randx.NewSource(s.Seed))
}

// scaledApplyTo implements the footnote-15 rescaled apply for any Transform:
// dst = (‖x‖/‖Φx‖)·Φx, the zero vector when x or Φx vanishes.
func scaledApplyTo(t Transform, dst, x vec.Vector) {
	t.ApplyTo(dst, x)
	nx := vec.Norm2(x)
	npx := vec.Norm2(dst)
	if nx == 0 || npx == 0 {
		dst.Zero()
		return
	}
	dst.Scale(nx / npx)
}

// imageSet returns the projected optimization domain for any Transform.
//
// For vertex-described sets (L1 balls and polytopes) the image is itself a
// polytope — the convex hull of the projected vertices — and is returned
// exactly. For other sets the exact image is expensive to project onto, so a
// Euclidean-ball relaxation of radius (1+γ)·‖C‖ is returned; the embedding
// theorem keeps ΦC inside this ball with high probability, the diameter bound
// ‖ΦC‖ = O(‖C‖) used in the utility analysis (Lemma 5.4) is preserved, and a
// final projection onto C after lifting restores feasibility.
func imageSet(t Transform, c constraint.Set, gamma float64) constraint.Set {
	if gamma < 0 {
		gamma = 0
	}
	switch s := c.(type) {
	case *constraint.L1Ball:
		cross := constraint.CrossPolytope(s.Dim(), s.Radius())
		return projectPolytope(t, cross)
	case *constraint.Polytope:
		return projectPolytope(t, s)
	default:
		return constraint.NewL2Ball(t.OutputDim(), (1+gamma)*c.Diameter())
	}
}

func projectPolytope(t Transform, poly *constraint.Polytope) constraint.Set {
	vertices := poly.Vertices()
	projected := make([]vec.Vector, len(vertices))
	for i, v := range vertices {
		projected[i] = t.Apply(v)
	}
	return constraint.NewPolytope(projected)
}
