// Package sketch implements the dimensionality-reduction machinery of
// Section 5 of the paper: Johnson–Lindenstrauss projections Φ ∈ R^{m×d},
// projected images of constraint sets, and the lifting procedure of
// Theorem 5.3 that recovers a point of the original constraint set from its
// projection by Minkowski-functional minimization (Step 9 of Algorithm 3).
//
// Two interchangeable backends implement the shared Transform interface:
//
//   - Projector — the paper's dense Gaussian projection with i.i.d. N(0, 1/m)
//     entries (Theorem 5.1, Gordon), O(m·d) per apply;
//   - SRHT — the subsampled randomized Hadamard transform, O(d log d) per
//     apply with the same norm-preservation guarantee up to log factors.
//
// Use New with a Backend to pick one; the mechanisms in internal/core expose
// the choice through their options.
package sketch

import (
	"errors"
	"fmt"
	"math"

	"privreg/internal/constraint"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// Projector is a fixed Gaussian random projection Φ: R^d → R^m.
type Projector struct {
	m, d int
	phi  *vec.Matrix
	// specUpper is a cached upper bound on ‖Φ‖, used for optimizer step sizes.
	specUpper float64
}

// NewProjector samples an m×d projection matrix with i.i.d. N(0, 1/m) entries,
// the distribution used by Theorem 5.1 (Gordon) and Algorithm 3.
func NewProjector(m, d int, src *randx.Source) (*Projector, error) {
	if m <= 0 || d <= 0 {
		return nil, fmt.Errorf("sketch: projection dimensions must be positive, got m=%d d=%d", m, d)
	}
	if src == nil {
		return nil, errors.New("sketch: nil randomness source")
	}
	phi := vec.NewMatrix(m, d)
	sigma := 1 / math.Sqrt(float64(m))
	src.FillNormal(phi.Data(), 0, sigma)
	p := &Projector{m: m, d: d, phi: phi}
	p.specUpper = phi.PowerIterationSpectralNorm(30, nil, nil) * 1.05
	if p.specUpper == 0 {
		p.specUpper = phi.SpectralNormUpperBound()
	}
	return p, nil
}

// InputDim returns the ambient dimension d.
func (p *Projector) InputDim() int { return p.d }

// OutputDim returns the projected dimension m.
func (p *Projector) OutputDim() int { return p.m }

// Apply returns Φx.
func (p *Projector) Apply(x vec.Vector) vec.Vector {
	return p.phi.MulVec(x)
}

// ApplyTo computes dst = Φx without allocating.
func (p *Projector) ApplyTo(dst, x vec.Vector) {
	p.phi.MulVecTo(dst, x)
}

// ApplyTransposeTo computes dst = Φᵀu without allocating.
func (p *Projector) ApplyTransposeTo(dst, u vec.Vector) {
	p.phi.MulVecTTo(dst, u)
}

// SpectralUpper returns a cached upper bound on the spectral norm ‖Φ‖.
func (p *Projector) SpectralUpper() float64 { return p.specUpper }

// ScaledApplyTo computes dst = Φx̃ without allocating, where x̃ = (‖x‖/‖Φx‖)·x
// is the paper's rescaled covariate (footnote 15 of the paper); by
// construction ‖Φx̃‖ = ‖x‖. For x = 0 dst is zeroed.
func (p *Projector) ScaledApplyTo(dst, x vec.Vector) {
	scaledApplyTo(p, dst, x)
}

// ImageSet returns a constraint set in the projected space R^m that is used as
// the optimization domain of Algorithm 3 (the set ΦC). See imageSet for the
// exact-versus-relaxed cases; the relaxation is an engineering substitution
// for the paper's exact image set.
func (p *Projector) ImageSet(c constraint.Set, gamma float64) constraint.Set {
	return imageSet(p, c, gamma)
}

// Lift solves the convex program of Step 9 of Algorithm 3,
//
//	minimize ‖θ‖_C   subject to   Φθ = ϑ,
//
// and returns the recovered θ ∈ R^d (see lift for the solver).
func (p *Projector) Lift(c constraint.Set, target vec.Vector, opts LiftOptions) (vec.Vector, error) {
	return lift(p, c, target, opts)
}
