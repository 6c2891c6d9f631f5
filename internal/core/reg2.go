package core

import (
	"errors"
	"fmt"
	"math"

	"privreg/internal/constraint"
	"privreg/internal/dp"
	"privreg/internal/geom"
	"privreg/internal/randx"
	"privreg/internal/sketch"
	"privreg/internal/vec"
)

// ProjectedOptions configures Algorithm PRIVINCREG2.
type ProjectedOptions struct {
	RegressionOptions

	// Gamma overrides the distortion parameter γ; when zero the paper's choice
	// γ = (w(X)+w(C))^{1/3} / T^{1/3} is used.
	Gamma float64
	// ProjectionDim overrides the projected dimension m; when zero Gordon's
	// rule m = Θ(max{W², log(T/β)} / γ²) is used (clamped to the ambient d).
	ProjectionDim int
	// ExactImage optimizes over the exact image ΦC when C is an L1 ball or a
	// polytope (the image is then a polytope with the same vertices projected).
	// The default (false) uses the Euclidean-ball relaxation described in
	// sketch.Projector.ImageSet, which is much cheaper to project onto; the
	// ablation benchmark compares the two.
	ExactImage bool
	// DisableCovariateScaling turns off the ‖x‖/‖Φx‖ rescaling of covariates
	// (footnote 15 of the paper). Used by BenchmarkAblationProjScaling.
	DisableCovariateScaling bool
	// Sketch selects the projection backend: the paper's dense Gaussian matrix
	// (the zero-value default) or the O(d log d) SRHT fast path. See
	// sketch.Backend.
	Sketch sketch.Backend
	// Lift configures the lifting solver of Step 9.
	Lift sketch.LiftOptions
}

// ProjectedRegression is Algorithm PRIVINCREG2 (Section 5): private incremental
// linear regression in a lower-dimensional Gaussian random projection of the
// problem. Covariates are projected (and rescaled) through a fixed Φ with
// i.i.d. N(0, 1/m) entries, a private gradient function of the projected
// least-squares objective is maintained with the Tree Mechanism, the
// privatized objective is minimized in the projected space (exactly on a
// Euclidean-ball domain, such as the default relaxation of ΦC, and by noisy
// projected gradient descent on a polytope image), and the solution is
// lifted back to the original constraint set by Minkowski-functional
// minimization (Theorem 5.3). The excess risk scales as ≈ T^{1/3}·W^{2/3} with
// W = w(X)+w(C) (Theorem 5.7), beating the √d bound of Algorithm 2 whenever the
// input domain and constraint set have small Gaussian width (sparse covariates,
// L1-ball constraints, ...). It is PRIVINCREG1's private-moment core fed Φx,
// solving over the projected domain, with the lift as post-processing.
//
// With a domain oracle (NewRobustProjectedRegression) it is the §5.2
// extension for streams where only some covariates come from a small-width
// domain G: points the oracle rejects are replaced by the neutral pair (0, 0)
// before they are folded, which preserves the privacy guarantee
// (the substitution is a data-independent per-record transformation) while
// the utility guarantee is stated over the in-domain points only.
type ProjectedRegression struct {
	privateMoments
	c    constraint.Set
	opts ProjectedOptions

	width      float64
	gamma      float64
	m          int
	projector  sketch.Transform
	sketchSpec sketch.Spec

	// oracle screens covariates (nil: accept all); dropped counts the points
	// it replaced by the neutral pair.
	oracle  DomainOracle
	dropped int
	// xWork is the reusable clamp buffer keeping ObserveRows
	// allocation-free.
	xWork vec.Vector
	proj  constraint.Scratch // of the lift's final projection
}

// DomainOracle reports whether a covariate belongs to the small-Gaussian-width
// sub-domain G ⊆ X of the §5.2 robust extension.
type DomainOracle func(x vec.Vector) bool

// NewProjectedRegression returns Algorithm PRIVINCREG2. xDomain describes the
// covariate domain X (its Gaussian width drives the projection dimension), c is
// the constraint set C, p the total privacy budget and horizon the stream
// length T.
func NewProjectedRegression(xDomain, c constraint.Set, p dp.Params, horizon int, src *randx.Source, opts ProjectedOptions) (*ProjectedRegression, error) {
	if xDomain == nil || c == nil {
		return nil, errors.New("core: nil covariate domain or constraint set")
	}
	if xDomain.Dim() != c.Dim() {
		return nil, fmt.Errorf("core: covariate domain dimension %d does not match constraint dimension %d", xDomain.Dim(), c.Dim())
	}
	if err := checkRegression(p, horizon, src); err != nil {
		return nil, err
	}
	opts.fill()
	d := c.Dim()

	width := xDomain.GaussianWidth() + c.GaussianWidth()
	gamma := opts.Gamma
	if gamma <= 0 {
		gamma = geom.ProjectionGamma(width, horizon)
	}
	m := opts.ProjectionDim
	if m <= 0 {
		m = geom.GordonDimension(width, gamma, confidenceBeta/float64(horizon), d)
	}
	if m > d {
		m = d
	}
	if m < 1 {
		m = 1
	}

	// The transform's full serializable state is its spec (backend + shape +
	// seed of the split source); checkpoints persist the spec and rebuild the
	// identical transform on restore.
	sketchSrc := src.Split()
	spec := sketch.Spec{Backend: opts.Sketch, OutputDim: m, InputDim: d, Seed: sketchSrc.Seed()}
	projector, err := sketch.New(opts.Sketch, m, d, sketchSrc)
	if err != nil {
		return nil, err
	}
	r := &ProjectedRegression{
		c:          c,
		opts:       opts,
		width:      width,
		gamma:      gamma,
		m:          m,
		projector:  projector,
		sketchSpec: spec,
		xWork:      vec.NewVector(d),
	}
	// The second-moment stream is svec(Φx (Φx)ᵀ) in the m-space, and α' =
	// O(κ‖C‖√m) is measured over the projected domain (Step 1 of
	// Algorithm 3).
	if r.privateMoments, err = newPrivateMoments(d, r.projectedDomain(projector), p, horizon, src, opts.RegressionOptions); err != nil {
		return nil, err
	}
	return r, nil
}

// NewRobustProjectedRegression returns the §5.2 robust extension of
// PRIVINCREG2: a ProjectedRegression that replaces the points oracle rejects
// by the neutral pair (0, 0). gDomain describes the small-width sub-domain G
// used to size the projection.
func NewRobustProjectedRegression(gDomain, c constraint.Set, oracle DomainOracle, p dp.Params, horizon int, src *randx.Source, opts ProjectedOptions) (*ProjectedRegression, error) {
	if oracle == nil {
		return nil, errors.New("core: nil domain oracle")
	}
	r, err := NewProjectedRegression(gDomain, c, p, horizon, src, opts)
	if err != nil {
		return nil, err
	}
	r.oracle = oracle
	return r, nil
}

// projectedDomain is the optimization domain in the m-space under the given
// transform: the exact image ΦC with ExactImage, otherwise the Euclidean-ball
// relaxation of radius (1+γ)‖C‖ described in sketch.Projector.ImageSet.
func (r *ProjectedRegression) projectedDomain(projector sketch.Transform) constraint.Set {
	if r.opts.ExactImage {
		return projector.ImageSet(r.c, r.gamma)
	}
	return constraint.NewL2Ball(r.m, (1+r.gamma)*r.c.Diameter())
}

// Name implements Estimator.
func (r *ProjectedRegression) Name() string {
	if r.oracle != nil {
		return "priv-inc-reg2-robust"
	}
	return "priv-inc-reg2"
}

// ProjectionDim returns the projected dimension m in use.
func (r *ProjectedRegression) ProjectionDim() int { return r.m }

// Width returns W = w(X) + w(C), the combined Gaussian width.
func (r *ProjectedRegression) Width() float64 { return r.width }

// Dropped returns the number of out-of-domain points the oracle replaced so
// far (always 0 without one).
func (r *ProjectedRegression) Dropped() int { return r.dropped }

// ObserveRows implements Estimator without heap allocation: screen, clamp,
// project and fold each row, the clamped covariate in a reusable buffer and
// the projected one straight into the exact statistics' row stage.
// Validation (whole rows, horizon capacity) happens before any row is
// consumed, so the per-row cost is one sketch apply plus the O(m²/2) packed
// outer-product fold.
func (r *ProjectedRegression) ObserveRows(xs, ys []float64) error {
	if err := r.admit(xs, ys); err != nil {
		return err
	}
	d := r.inDim
	st := r.stats.Stage()
	for i, y := range ys {
		// The oracle sees the row alone: capping the capacity keeps an
		// append from reaching the next row.
		x := vec.Vector(xs[i*d : (i+1)*d : (i+1)*d])
		if r.oracle == nil || r.oracle(x) {
			y = clampInto(r.xWork, x, y)
		} else {
			r.dropped++
			r.xWork.Zero()
			y = 0
		}
		px, yb := st.Next()
		yb[0] = y
		if r.opts.DisableCovariateScaling {
			r.projector.ApplyTo(px, r.xWork)
			// Without the rescaling the projected covariate can exceed unit
			// norm, which would break the stated sensitivity; clip to preserve
			// privacy at the cost of bias (this is exactly the trade-off the
			// ablation probes).
			if n := vec.Norm2(px); n > 1 {
				px.Scale(1 / n)
			}
		} else {
			r.projector.ScaledApplyTo(px, r.xWork)
		}
	}
	st.Release()
	return nil
}

// Estimate implements Estimator: optimize privately in the projected space,
// then lift the solution back into C, memoized per timestep.
func (r *ProjectedRegression) Estimate() (vec.Vector, error) { return r.estimate(r.lift) }

// lift maps a projected-space solution back into C (Step 9 of Algorithm 3).
// A final projection guarantees θ ∈ C even when the ball-relaxed projected
// domain produced a point slightly outside ΦC; this is post-processing and
// does not affect privacy.
func (r *ProjectedRegression) lift(theta vec.Vector) (vec.Vector, error) {
	lifted, err := r.projector.Lift(r.c, theta, r.opts.Lift)
	if err != nil {
		return nil, err
	}
	r.c.ProjectInto(lifted, lifted, &r.proj)
	return lifted, nil
}

// StateBytes reports the retained per-stream memory of the mechanism: the
// core's in the projected space plus the clamp buffer. The sketch transform
// is not counted: it is a function of the spec and the same size for every
// stream of a pool.
func (r *ProjectedRegression) StateBytes() int {
	return r.bytes() + 8*len(r.xWork)
}

// ExcessRiskBoundReg2 returns the leading term of the Theorem 5.7 bound,
// T^{1/3}·W^{2/3}·log²T·‖C‖²·√(log(1/δ))·log(1/β)/ε plus the OPT-dependent
// terms, capped at the trivial bound. opt is the minimum empirical risk at the
// horizon (pass 0 when unknown; the OPT terms then vanish).
func ExcessRiskBoundReg2(horizon int, width, diameter float64, p dp.Params, beta, opt float64) float64 {
	if beta <= 0 || beta >= 1 {
		beta = 0.05
	}
	trivial := 2 * float64(horizon) * diameter * (1 + diameter)
	if p.Delta <= 0 {
		return trivial
	}
	t := float64(horizon)
	lt := math.Log(t + 2)
	lead := math.Cbrt(t) * math.Pow(width, 2.0/3.0) * lt * lt * diameter * diameter *
		math.Sqrt(math.Log(1/p.Delta)) * math.Log(1/beta) / p.Epsilon
	optTerm := math.Pow(t, 1.0/6.0)*math.Cbrt(width)*diameter*math.Sqrt(opt) +
		math.Pow(t, 0.25)*math.Sqrt(width)*math.Pow(diameter, 1.5)*math.Pow(opt, 0.25)
	return math.Min(lead+optTerm, trivial)
}

// Interface conformance checks for all mechanisms in the package.
var (
	_ Estimator = (*NonPrivateIncremental)(nil)
	_ Estimator = (*GenericERM)(nil)
	_ Estimator = (*GradientRegression)(nil)
	_ Estimator = (*ProjectedRegression)(nil)
)
