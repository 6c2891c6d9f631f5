package core

import (
	"errors"
	"fmt"
	"math"

	"privreg/internal/constraint"
	"privreg/internal/dp"
	"privreg/internal/geom"
	"privreg/internal/loss"
	"privreg/internal/optimize"
	"privreg/internal/randx"
	"privreg/internal/sketch"
	"privreg/internal/tree"
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
	// (the zero-value default), the O(d log d) SRHT fast path, or automatic
	// selection by dimension. See sketch.Backend.
	Sketch sketch.Backend
	// Lift configures the lifting solver of Step 9.
	Lift sketch.LiftOptions
}

// ProjectedRegression is Algorithm PRIVINCREG2 (Section 5): private incremental
// linear regression in a lower-dimensional Gaussian random projection of the
// problem. Covariates are projected (and rescaled) through a fixed Φ with
// i.i.d. N(0, 1/m) entries, a private gradient function of the projected
// least-squares objective is maintained with the Tree Mechanism, noisy
// projected gradient descent is run in the projected space, and the solution is
// lifted back to the original constraint set by Minkowski-functional
// minimization (Theorem 5.3). The excess risk scales as ≈ T^{1/3}·W^{2/3} with
// W = w(X)+w(C) (Theorem 5.7), beating the √d bound of Algorithm 2 whenever the
// input domain and constraint set have small Gaussian width (sparse covariates,
// L1-ball constraints, ...).
type ProjectedRegression struct {
	xDomain constraint.Set
	c       constraint.Set
	privacy dp.Params
	horizon int
	opts    ProjectedOptions

	width      float64
	gamma      float64
	m          int
	projector  sketch.Transform
	sketchSpec sketch.Spec
	projSet    constraint.Set

	sumXY   tree.Mechanism
	sumXXT  tree.Mechanism
	gradErr float64

	d        int
	n        int
	prevProj vec.Vector
	prevLift vec.Vector
	// estCache memoizes the lifted estimate computed at observation count
	// estN (estN < 0 = none); see GradientRegression.estCache. The projected
	// solve plus the lift are by far the most expensive operations in the
	// package, so serving repeated estimate reads from the cache is what makes
	// estimate-heavy traffic cheap.
	estCache vec.Vector
	estN     int
	// Reusable per-timestep buffers keeping Observe allocation-free.
	xWork    vec.Vector
	pxWork   vec.Vector
	pxyWork  []float64
	svecWork []float64
	// grad is the read workspace of Gradient; see GradientRegression.grad.
	grad PrivateGradient
}

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
	if horizon <= 0 {
		return nil, fmt.Errorf("core: horizon must be positive, got %d", horizon)
	}
	if src == nil {
		return nil, errors.New("core: nil randomness source")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Delta == 0 {
		return nil, errors.New("core: the regression mechanisms require delta > 0")
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
		m = geom.GordonDimension(width, gamma, opts.ConfidenceBeta/float64(maxInt(horizon, 1)), d)
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
	var projSet constraint.Set
	if opts.ExactImage {
		projSet = projector.ImageSet(c, gamma)
	} else {
		projSet = constraint.NewL2Ball(m, (1+gamma)*c.Diameter())
	}

	half := p.Halve()
	// The second-moment stream is svec(Φx (Φx)ᵀ) in the m-space; see
	// NewGradientRegression for the sensitivity.
	const sensitivity = 2.0
	p2 := svecLen(m)
	var sumXY, sumXXT tree.Mechanism
	if opts.UseHybridTree {
		sumXY, err = tree.NewHybrid(m, sensitivity, half, src.Split())
		if err != nil {
			return nil, err
		}
		sumXXT, err = tree.NewHybrid(p2, sensitivity, half, src.Split())
		if err != nil {
			return nil, err
		}
	} else {
		sumXY, err = tree.New(tree.Config{Dim: m, MaxLen: horizon, Sensitivity: sensitivity, Privacy: half}, src.Split())
		if err != nil {
			return nil, err
		}
		sumXXT, err = tree.New(tree.Config{Dim: p2, MaxLen: horizon, Sensitivity: sensitivity, Privacy: half}, src.Split())
		if err != nil {
			return nil, err
		}
	}

	r := &ProjectedRegression{
		xDomain:    xDomain,
		c:          c,
		privacy:    p,
		horizon:    horizon,
		opts:       opts,
		width:      width,
		gamma:      gamma,
		m:          m,
		projector:  projector,
		sketchSpec: spec,
		projSet:    projSet,
		sumXY:      sumXY,
		sumXXT:     sumXXT,
		d:          d,
		prevProj:   projSet.Project(vec.NewVector(m)),
		prevLift:   c.Project(vec.NewVector(d)),
		estN:       -1,
		xWork:      vec.NewVector(d),
		pxWork:     vec.NewVector(m),
		pxyWork:    make([]float64, m),
		svecWork:   make([]float64, p2),
	}
	r.gradErr = r.gradientErrorScale()
	return r, nil
}

// gradientErrorScale is the α' of the projected space: α' = O(κ‖C‖√m)
// (Step 1 of Algorithm 3), with the second-moment error measured in spectral
// norm over the projected domain.
func (r *ProjectedRegression) gradientErrorScale() float64 {
	return gradientErrorScale(r.sumXY, r.sumXXT, r.horizon, r.m, r.projSet.Diameter(), r.opts.ConfidenceBeta)
}

// Name implements Estimator.
func (r *ProjectedRegression) Name() string { return "priv-inc-reg2" }

// ProjectionDim returns the projected dimension m in use.
func (r *ProjectedRegression) ProjectionDim() int { return r.m }

// Gamma returns the distortion parameter γ in use.
func (r *ProjectedRegression) Gamma() float64 { return r.gamma }

// Width returns W = w(X) + w(C), the combined Gaussian width.
func (r *ProjectedRegression) Width() float64 { return r.width }

// Projector exposes the fixed random projection (useful for the adaptive-stream
// experiments, which need a probe into the projected geometry).
func (r *ProjectedRegression) Projector() sketch.Transform { return r.projector }

// SketchBackend reports which sketch backend the mechanism constructed.
func (r *ProjectedRegression) SketchBackend() string {
	if _, ok := r.projector.(*sketch.SRHT); ok {
		return "srht"
	}
	return "dense"
}

// Observe implements Estimator. The steady-state path performs no heap
// allocation: the clamped covariate, projected covariate, and packed outer
// product all live in reusable buffers, and the Tree Mechanism updates go
// through the allocation-free AddTo entry point.
func (r *ProjectedRegression) Observe(p loss.Point) error {
	if !r.opts.UseHybridTree && r.n >= r.horizon {
		return ErrStreamFull
	}
	if len(p.X) != r.d {
		return fmt.Errorf("core: covariate dimension %d does not match constraint dimension %d", len(p.X), r.d)
	}
	return r.observeValidated(p)
}

// ObserveBatch implements Estimator: project and fold a contiguous run of
// points. Validation (dimensions, horizon capacity) happens before any element
// is consumed, and the Tree Mechanism running-sum aggregation is deferred to
// the end of the batch, so the per-point cost is one sketch apply plus the
// O(m²/2) packed outer-product fold. Private state and randomness consumption
// are identical to a scalar Observe loop.
func (r *ProjectedRegression) ObserveBatch(ps []loss.Point) error {
	if !r.opts.UseHybridTree && r.n+len(ps) > r.horizon {
		return ErrStreamFull
	}
	for i := range ps {
		if len(ps[i].X) != r.d {
			return fmt.Errorf("core: batch element %d dimension %d does not match constraint dimension %d", i, len(ps[i].X), r.d)
		}
	}
	for i := range ps {
		if err := r.observeValidated(ps[i]); err != nil {
			return err
		}
	}
	return nil
}

// observeValidated is the dimension-checked body shared by Observe and
// ObserveBatch.
func (r *ProjectedRegression) observeValidated(p loss.Point) error {
	y := clampInto(r.xWork, p.X, p.Y)
	px := r.pxWork
	if r.opts.DisableCovariateScaling {
		r.projector.ApplyTo(px, r.xWork)
		// Without the rescaling the projected covariate can exceed unit norm,
		// which would break the stated sensitivity; clip to preserve privacy at
		// the cost of bias (this is exactly the trade-off the ablation probes).
		if n := vec.Norm2(px); n > 1 {
			px.Scale(1 / n)
		}
	} else {
		r.projector.ScaledApplyTo(px, r.xWork)
	}
	for i, v := range px {
		r.pxyWork[i] = y * v
	}
	if err := r.sumXY.AddTo(nil, r.pxyWork); err != nil {
		return err
	}
	svecOuter(r.svecWork, px)
	if err := r.sumXXT.AddTo(nil, r.svecWork); err != nil {
		return err
	}
	r.n++
	return nil
}

// Gradient returns the current private gradient function of the projected
// least-squares objective (an m-dimensional PrivateGradient). Like
// GradientRegression.Gradient, it returns the mechanism's read workspace,
// valid until the next Gradient or Estimate call.
func (r *ProjectedRegression) Gradient() *PrivateGradient {
	readGradient(&r.grad, r.sumXY, r.sumXXT, r.m)
	return &r.grad
}

// Estimate implements Estimator: optimize privately in the projected space,
// then lift the solution back into C. With no new observations since the
// previous call, the memoized solution is returned; see
// GradientRegression.Estimate for the warm-start semantics of the memo.
func (r *ProjectedRegression) Estimate() (vec.Vector, error) {
	if r.estN == r.n && r.estCache != nil {
		return r.estCache.Clone(), nil
	}
	pg := r.Gradient()
	lip := 2 * float64(maxInt(r.n, 1)) * (1 + r.projSet.Diameter())
	iters := optimize.IterationsForTargetError(lip*r.projSet.Diameter(), r.gradErr, r.opts.MinIterations, r.opts.MaxIterations)
	opts := optimize.Options{
		Iterations: iters,
		Lipschitz:  lip,
		GradError:  r.gradErr,
		Average:    true,
		StepSize:   smoothStepSize(pg, lip, r.gradErr, r.projSet.Diameter(), iters),
	}
	if r.opts.WarmStart {
		opts.Start = r.prevProj
	}
	res, err := optimize.NoisyProjected(r.projSet, pg.Func(), opts)
	if err != nil {
		return nil, err
	}
	r.prevProj = res.Theta.Clone()

	liftOpts := r.opts.Lift
	theta, err := r.projector.Lift(r.c, res.Theta, liftOpts)
	if err != nil {
		return nil, err
	}
	// A final projection guarantees θ ∈ C even when the ball-relaxed projected
	// domain produced a point slightly outside ΦC; this is post-processing and
	// does not affect privacy.
	theta = r.c.Project(theta)
	r.prevLift = theta.Clone()
	r.estCache = theta.Clone()
	r.estN = r.n
	return theta, nil
}

// Len implements Estimator.
func (r *ProjectedRegression) Len() int { return r.n }

// StateBytes reports the retained per-stream memory of the mechanism, as
// GradientRegression.StateBytes does, in the projected space plus the
// d-dimensional lift iterates. The sketch transform is not counted: it is a
// function of the spec and the same size for every stream of a pool.
func (r *ProjectedRegression) StateBytes() int {
	return r.sumXY.Bytes() + r.sumXXT.Bytes() + r.grad.bytes() +
		8*(len(r.prevProj)+len(r.prevLift)+len(r.estCache)+len(r.xWork)+len(r.pxWork)+len(r.pxyWork)+len(r.svecWork))
}

// Privacy implements Estimator.
func (r *ProjectedRegression) Privacy() dp.Params { return r.privacy }

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

// DomainOracle reports whether a covariate belongs to the small-Gaussian-width
// sub-domain G ⊆ X of the §5.2 robust extension.
type DomainOracle func(x vec.Vector) bool

// RobustProjectedRegression is the §5.2 extension of Algorithm PRIVINCREG2 for
// streams where only some covariates come from a small-width domain G: points
// the oracle rejects are replaced by the neutral pair (0, 0) before they reach
// the Tree Mechanisms, which preserves the privacy guarantee (the substitution
// is a data-independent per-record transformation) while the utility guarantee
// is stated over the in-domain points only.
type RobustProjectedRegression struct {
	inner  *ProjectedRegression
	oracle DomainOracle
	// dropped counts how many points were replaced by the neutral pair.
	dropped int
}

// NewRobustProjectedRegression wraps a ProjectedRegression configuration with a
// domain oracle. gDomain describes the small-width sub-domain G used to size
// the projection.
func NewRobustProjectedRegression(gDomain, c constraint.Set, oracle DomainOracle, p dp.Params, horizon int, src *randx.Source, opts ProjectedOptions) (*RobustProjectedRegression, error) {
	if oracle == nil {
		return nil, errors.New("core: nil domain oracle")
	}
	inner, err := NewProjectedRegression(gDomain, c, p, horizon, src, opts)
	if err != nil {
		return nil, err
	}
	return &RobustProjectedRegression{inner: inner, oracle: oracle}, nil
}

// Name implements Estimator.
func (r *RobustProjectedRegression) Name() string { return "priv-inc-reg2-robust" }

// Observe implements Estimator.
func (r *RobustProjectedRegression) Observe(p loss.Point) error {
	if !r.oracle(p.X) {
		r.dropped++
		return r.inner.Observe(loss.Point{X: vec.NewVector(r.inner.d), Y: 0})
	}
	return r.inner.Observe(p)
}

// ObserveBatch implements Estimator: each point is screened by the oracle and
// either passed through or neutralized, exactly as a scalar Observe loop
// would. Capacity and dimensions are validated before any element is
// consumed, preserving the all-or-nothing batch contract.
func (r *RobustProjectedRegression) ObserveBatch(ps []loss.Point) error {
	if !r.inner.opts.UseHybridTree && r.inner.n+len(ps) > r.inner.horizon {
		return ErrStreamFull
	}
	for i := range ps {
		if len(ps[i].X) != r.inner.d {
			return fmt.Errorf("core: batch element %d dimension %d does not match constraint dimension %d", i, len(ps[i].X), r.inner.d)
		}
	}
	for i := range ps {
		if err := r.Observe(ps[i]); err != nil {
			return err
		}
	}
	return nil
}

// Estimate implements Estimator.
func (r *RobustProjectedRegression) Estimate() (vec.Vector, error) { return r.inner.Estimate() }

// Len implements Estimator.
func (r *RobustProjectedRegression) Len() int { return r.inner.Len() }

// Privacy implements Estimator.
func (r *RobustProjectedRegression) Privacy() dp.Params { return r.inner.Privacy() }

// StateBytes reports the retained per-stream memory of the inner mechanism.
func (r *RobustProjectedRegression) StateBytes() int { return r.inner.StateBytes() }

// Dropped returns the number of out-of-domain points replaced so far.
func (r *RobustProjectedRegression) Dropped() int { return r.dropped }

// Interface conformance checks for all mechanisms in the package.
var (
	_ Estimator = (*TrivialConstant)(nil)
	_ Estimator = (*NonPrivateIncremental)(nil)
	_ Estimator = (*GenericERM)(nil)
	_ Estimator = (*GradientRegression)(nil)
	_ Estimator = (*ProjectedRegression)(nil)
	_ Estimator = (*RobustProjectedRegression)(nil)
)
