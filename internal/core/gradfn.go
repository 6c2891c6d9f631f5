package core

import (
	"errors"
	"fmt"
	"math"

	"privreg/internal/codec"
	"privreg/internal/constraint"
	"privreg/internal/dp"
	"privreg/internal/erm"
	"privreg/internal/randx"
	"privreg/internal/tree"
	"privreg/internal/vec"
)

// PrivateGradient is a private gradient function in the sense of Definition 5,
// specialized to least-squares losses whose gradient has the linear form
//
//	∇L(θ; Γ_t) = 2 (Σ x_i x_iᵀ · θ - Σ x_i y_i) = 2 (Q θ - q).
//
// Q and q are privately maintained running sums (exact sums plus Tree
// Mechanism noise), so evaluating the function at any number of points θ is
// post-processing and consumes no additional privacy budget — the property
// that lets the noisy projected gradient optimizer iterate freely (Section 4).
type PrivateGradient struct {
	// Q is the private estimate of Σ x_i x_iᵀ: the exact Gram plus the
	// unpacked svec noise (symmetric by construction).
	Q *vec.Matrix
	// Qv is the private estimate of Σ x_i y_i.
	Qv vec.Vector
	// pv and pu are the power iteration's vectors for the descent step
	// size, allocated by its first use.
	pv, pu vec.Vector
}

// GradientInto writes 2(Qθ - q) into dst without allocating.
func (g *PrivateGradient) GradientInto(dst, theta vec.Vector) {
	g.Q.MulVecTo(dst, theta)
	dst.SubInPlace(g.Qv)
	dst.Scale(2)
}

// bytes is the memory held by g's buffers (0 before the first read).
func (g *PrivateGradient) bytes() int {
	if g.Q == nil {
		return 0
	}
	return 8 * (len(g.Q.Data()) + len(g.Qv) + len(g.pv) + len(g.pu))
}

// smoothStepSize picks the projected-gradient step size for minimizing the
// (private) quadratic ½θᵀ(2Q)θ - 2qᵀθ. The loss is 2‖Q‖-smooth, so a step of
// 1/(2‖Q‖) is admissible and converges much faster than the conservative
// worst-case step ‖C‖/(√r(α+L)) of Proposition B.1 whenever the accumulated
// signal dominates; the larger of the two is returned (never exceeding the
// smoothness limit when Q carries signal). This choice is pure post-processing
// of private state, so it has no effect on the privacy guarantee; it only
// narrows the gap between the mechanism's output and the minimizer of its
// privatized objective. The power iteration runs in pg's buffers.
func smoothStepSize(pg *PrivateGradient, lip, gradErr, diameter float64, iters int) float64 {
	def := erm.DefaultStepSize(diameter, iters, gradErr, lip)
	if pg.pv == nil {
		pg.pv, pg.pu = vec.NewVector(len(pg.Qv)), vec.NewVector(len(pg.Qv))
	}
	pg.pv.Fill(1)
	spec := pg.Q.PowerIterationSpectralNorm(30, pg.pv, pg.pu)
	if smooth := 1 / (2.1 * spec); spec > 0 && smooth > def {
		return smooth
	}
	return def
}

// gradientErrorScale returns the α' of Algorithm 2 for a private gradient
// released through the first-moment overlay sumXY and the second-moment
// overlay sumXXT over a dim-dimensional space: a high-probability bound on
// ‖g_t(θ) - ∇L(θ; Γ_t)‖ over a domain of the given diameter (Lemma 4.1 with
// explicit constants), valid for every timestep up to the horizon. The
// first-moment error is the Gaussian norm bound σ_r·(√d + √(2 ln(1/β))) of a
// release with per-coordinate noise σ_r. The second-moment error enters
// through the spectral norm of the d×d noise matrix, which for Gaussian
// entries of standard deviation σ_r is ≈ 2σ_r√d — a factor √d smaller than
// its Frobenius norm. Both σ_r are sized from the horizon, so a Hybrid
// substrate gets the bound of its noisiest reachable epoch, not of its first.
// The failure probability is confidenceBeta.
func gradientErrorScale(sumXY, sumXXT tree.Overlay, horizon, dim int, diameter float64) float64 {
	rd := math.Sqrt(float64(dim))
	sumErr := sumXY.ReleaseSigma(horizon) * (rd + math.Sqrt(2*math.Log(1/confidenceBeta)))
	return 2 * (diameter*secondMomentNoise(sumXXT, horizon, dim) + sumErr)
}

// secondMomentNoise returns 2σ_r√d, the bound on the spectral norm of the
// d×d noise matrix in a release of the second-moment overlay sumXXT that
// enters gradientErrorScale.
func secondMomentNoise(sumXXT tree.Overlay, horizon, dim int) float64 {
	return 2 * sumXXT.ReleaseSigma(horizon) * math.Sqrt(float64(dim))
}

// confidenceBeta is the failure probability β that sizes the regression
// mechanisms' noise-dependent quantities: the gradient-error scale α' and
// PRIVINCREG2's projection dimension.
const confidenceBeta = 0.05

// privateMoments is the private-moment core of PRIVINCREG1 and PRIVINCREG2.
// Both mechanisms fold a vector v of norm at most 1 per row — the clamped
// covariate for PRIVINCREG1, its projection Φx for PRIVINCREG2 — into exact
// sufficient statistics, the Gram matrix A = Σ v vᵀ and b = Σ y·v, and
// release them through two noise overlays, the first-moment stream y·v and
// the second-moment stream svec(v vᵀ) (Steps 3–4 of Algorithm 2), each
// holding half of the privacy budget: q̃ = b + N^xy and Q̃ = A + unsvec(N^xx).
// The Tree Mechanism's release is the exact prefix sum plus its nodes' noise,
// so this is its release, up to float rounding. The core reads an estimate by
// minimizing the privatized objective θᵀQ̃θ − 2q̃ᵀθ over a solve domain of
// v's dimension, in solver workspaces held per core: exactly, as a
// trust-region problem with Q̃ ridged up to the noise bound, when the domain
// is an L2 ball, and otherwise by noisy projected gradient descent against
// the private gradient. The mechanisms own what comes before the fold
// (clamping, the sketch) and after the solve (the lift).
type privateMoments struct {
	horizon int
	opts    RegressionOptions
	// inDim is the dimension of the raw covariates and of the released
	// estimate; dim is the dimension of v and of the solve domain.
	inDim, dim int

	// stats holds the exact A, b and row count.
	stats         *erm.MultiStats
	sumXY, sumXXT tree.Overlay
	domain        constraint.Set
	// ball is domain when it is an L2 ball, read exactly through trust;
	// otherwise nil, and solver is the descent workspace over domain.
	ball   *constraint.L2Ball
	trust  erm.TrustRegion
	solver *erm.Solver
	// gradErr is the α' of Definition 5 over domain, for the horizon.
	gradErr float64
	// floor is ρ, the bound on the spectral norm of the second-moment
	// noise: the exact read lifts Q̃'s spectrum to it.
	floor float64
	// prev is the warm-start iterate in the solve domain.
	prev vec.Vector
	// estCache memoizes the released estimate computed at observation count
	// estN (estN < 0 = none): Estimate is deterministic post-processing of
	// the private state, so while no new points arrive the previous estimate
	// is returned instead of re-running the optimizer (and the lift).
	estCache vec.Vector
	estN     int
	// grad is the read workspace of Gradient, allocated at the first read
	// and refilled in place by every later one.
	grad PrivateGradient
}

// checkRegression validates the construction arguments both regression
// mechanisms share.
func checkRegression(p dp.Params, horizon int, src *randx.Source) error {
	if horizon <= 0 {
		return fmt.Errorf("core: horizon must be positive, got %d", horizon)
	}
	if src == nil {
		return errors.New("core: nil randomness source")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Delta == 0 {
		return errors.New("core: the regression mechanisms require delta > 0")
	}
	return nil
}

// newPrivateMoments returns the core for covariates of dimension inDim folded
// as vectors of domain's dimension. The first-moment and then the
// second-moment overlay draw their noise keys from src; opts must be filled.
func newPrivateMoments(inDim int, domain constraint.Set, p dp.Params, horizon int, src *randx.Source, opts RegressionOptions) (privateMoments, error) {
	dim := domain.Dim()
	half := p.Halve()
	// Both streams have L2-sensitivity at most 2: ‖y·v‖ ≤ 1 and
	// ‖svec(v vᵀ)‖₂ = ‖v vᵀ‖_F ≤ 1 for v in the unit ball, so any two domain
	// elements are at distance at most 2.
	const sensitivity = 2.0
	newSum := func(n int) (tree.Overlay, error) {
		if opts.UseHybridTree {
			return tree.NewHybrid(n, sensitivity, half, src.Split())
		}
		return tree.New(tree.Config{Dim: n, MaxLen: horizon, Sensitivity: sensitivity, Privacy: half}, src.Split())
	}
	sumXY, err := newSum(dim)
	if err != nil {
		return privateMoments{}, err
	}
	sumXXT, err := newSum(svecLen(dim))
	if err != nil {
		return privateMoments{}, err
	}
	m := privateMoments{
		horizon: horizon,
		opts:    opts,
		inDim:   inDim,
		dim:     dim,
		stats:   erm.NewMultiStats(dim, 1),
		sumXY:   sumXY,
		sumXXT:  sumXXT,
		prev:    vec.NewVector(dim),
		estN:    -1,
	}
	domain.ProjectInto(m.prev, m.prev, nil)
	m.setDomain(domain)
	return m, nil
}

// setDomain sets the solve domain, its solver workspace and the α' sized
// from its diameter. The domain's type picks the solver: an L2 ball is read
// exactly, any other set by projected gradient descent.
func (m *privateMoments) setDomain(domain constraint.Set) {
	m.domain = domain
	m.ball, m.solver = nil, nil
	if ball, ok := domain.(*constraint.L2Ball); ok {
		m.ball = ball
	} else {
		m.solver = erm.NewSolver(domain)
	}
	m.gradErr = gradientErrorScale(m.sumXY, m.sumXXT, m.horizon, m.dim, domain.Diameter())
	m.floor = secondMomentNoise(m.sumXXT, m.horizon, m.dim)
}

// admit checks a flat batch before any row is consumed — whole rows of
// inDim covariates and one response, and horizon capacity (fixed-horizon
// trees only) — so that it is folded whole or not at all.
func (m *privateMoments) admit(xs, ys []float64) error {
	rows, err := batchRows(xs, ys, m.inDim, 1)
	if err != nil {
		return err
	}
	if !m.opts.UseHybridTree && m.stats.Len()+rows > m.horizon {
		return ErrStreamFull
	}
	return nil
}

// Gradient returns the current private gradient function (Definition 5) over
// the solve domain's dimension. It may be evaluated any number of times
// without privacy cost. The returned structure is the mechanism's read
// workspace: the released sums are written into it in place (the svec noise
// straight into the d×d matrix's storage, unpacked there onto the exact
// Gram), so it is valid until the next Gradient or Estimate call.
func (m *privateMoments) Gradient() *PrivateGradient {
	pg := &m.grad
	if pg.Q == nil {
		pg.Q = vec.NewMatrix(m.dim, m.dim)
		pg.Qv = vec.NewVector(m.dim)
	}
	n := m.stats.Len()
	pg.Qv.CopyFrom(m.stats.Moment(0))
	m.sumXY.AddNoiseTo(pg.Qv, n)
	packed := pg.Q.Data()[:svecLen(m.dim)]
	clear(packed)
	m.sumXXT.AddNoiseTo(packed, n)
	unpackSvec(pg.Q, m.stats.Gram().Data())
	return pg
}

// estimate minimizes the privatized objective θᵀQ̃θ − 2q̃ᵀθ over the solve
// domain and passes the solution through lift (nil for none) to the released
// estimate. Over an L2 ball the objective is first ridged to
// θᵀ(Q̃ + rI)θ − 2q̃ᵀθ, r the smallest ridge (TrustRegion.Ridge) lifting Q̃'s
// smallest eigenvalue to the noise bound ρ: without it, the minimizer follows
// the noise's negative curvature to the sphere, and its true excess risk is
// worse than the shrunk descent average's wherever noise dominates. The
// ridged objective is then minimized exactly (TrustRegion.Solve). Over any
// other domain noisy projected gradient descent runs against the current
// private gradient. All are post-processing of the released moments. With
// no new observations since the previous call the memoized estimate is
// returned. Without warm starts the skipped solve would have produced the
// identical vector; with WarmStart the memo pins the first descent solution
// at this timestep (a repeat solve would refine from the warm-start iterate)
// — a deliberate, equally valid semantics that the checkpointed memo keeps
// consistent across restore. The exact read ignores
// the warm start. The solve runs in the core's workspaces: without a lift,
// the released copy of the memo is the read's only allocation.
func (m *privateMoments) estimate(lift func(vec.Vector) (vec.Vector, error)) (vec.Vector, error) {
	n := m.stats.Len()
	if m.estN == n && m.estCache != nil {
		return m.estCache.Clone(), nil
	}
	pg := m.Gradient()
	var theta vec.Vector
	if m.ball != nil {
		// The read workspace's Q̃ becomes Q̃ + rI in place.
		r := m.trust.Ridge(pg.Q, m.floor)
		data := pg.Q.Data()
		for i := 0; i < m.dim; i++ {
			data[i*m.dim+i] += r
		}
		theta, _ = m.trust.Solve(pg.Q, pg.Qv, m.ball.Radius())
	} else {
		diam := m.domain.Diameter()
		lip := 2 * float64(max(n, 1)) * (1 + diam) // Lipschitz bound of the accumulated exact gradient
		iters := erm.IterationsForTargetError(lip*diam, m.gradErr, m.opts.MinIterations, m.opts.MaxIterations)
		var start vec.Vector
		if m.opts.WarmStart {
			start = m.prev
		}
		// Reading the private gradient is post-processing, so the solve adds
		// no noise of its own; the tolerance stop stays off, so it returns
		// the Appendix-B average.
		theta = m.solver.Descend(start, iters, smoothStepSize(pg, lip, m.gradErr, diam, iters), 0,
			func(dst, theta vec.Vector, _ int) { pg.GradientInto(dst, theta) })
	}
	m.prev.CopyFrom(theta)
	if lift != nil {
		var err error
		if theta, err = lift(theta); err != nil {
			return nil, err
		}
	}
	if len(m.estCache) != len(theta) {
		m.estCache = vec.NewVector(len(theta))
	}
	m.estCache.CopyFrom(theta)
	m.estN = n
	return m.estCache.Clone(), nil
}

// Len implements Estimator.
func (m *privateMoments) Len() int { return m.stats.Len() }

// GradientErrorScale exposes α', the high-probability gradient approximation
// error of the private gradient function, for diagnostics and experiments.
func (m *privateMoments) GradientErrorScale() float64 { return m.gradErr }

// bytes is the core's retained memory: the exact statistics, the iterate and
// estimate memo, the descent solver's five domain-sized vectors or, once a
// read has allocated it, the trust-region workspace, and, once a read has
// allocated it, the gradient workspace. The two overlays keep no noise
// buffer, so none of it grows with the horizon.
func (m *privateMoments) bytes() int {
	solver := m.trust.Bytes()
	if m.solver != nil {
		solver = 8 * 5 * m.dim
	}
	return m.stats.Bytes() + m.grad.bytes() + solver + 8*(len(m.prev)+len(m.estCache))
}

// appendMoments appends the core's checkpoint section to w: the warm-start
// iterate, the estimate memo, the exact statistics (which carry the count)
// and both overlays (which carry their noise keys), written in place. The
// memo must travel with the checkpoint: with warm starts a cache hit returns
// the memo, while a memo-less restored instance would re-run the optimizer
// from the warm-start iterate — a different (if equally valid) vector.
func (m *privateMoments) appendMoments(w *codec.Writer) {
	w.Grow(8 * (4 + len(m.prev) + len(m.estCache)))
	w.F64s(m.prev)
	w.Int(m.estN)
	w.F64s(m.estCache)
	w.Nested(m.stats)
	w.Nested(m.sumXY)
	w.Nested(m.sumXXT)
}

// momentState is a decoded core checkpoint section, not yet validated.
type momentState struct {
	estN           int
	prev, estCache []float64
	xy, xxt        []byte
}

// readMoments decodes the section appendMoments wrote. The exact statistics
// decode in place into m's, as the rest of the state is restored in place:
// after an error the core's state is unspecified.
func (m *privateMoments) readMoments(r *codec.Reader) momentState {
	var s momentState
	s.prev = r.F64s()
	s.estN = r.Int()
	s.estCache = r.F64s()
	if blob := r.Blob(); r.Err() == nil {
		if err := m.stats.UnmarshalState(blob); err != nil {
			r.Fail(fmt.Errorf("core: restoring statistics: %w", err))
		}
	}
	s.xy = r.Blob()
	s.xxt = r.Blob()
	return s
}

// restore validates s, and the statistics readMoments restored, against the
// core's shape and applies s.
func (m *privateMoments) restore(s momentState) error {
	n := m.stats.Len()
	if len(s.prev) != m.dim {
		return errors.New("core: corrupt checkpoint")
	}
	if !m.opts.UseHybridTree && n > m.horizon {
		return fmt.Errorf("core: corrupt checkpoint: %d rows exceed the horizon %d", n, m.horizon)
	}
	if len(s.estCache) != 0 && (len(s.estCache) != m.inDim || s.estN < 0 || s.estN > n) {
		return errors.New("core: corrupt checkpoint estimate memo")
	}
	if err := m.sumXY.UnmarshalState(s.xy); err != nil {
		return fmt.Errorf("core: restoring first-moment overlay: %w", err)
	}
	if err := m.sumXXT.UnmarshalState(s.xxt); err != nil {
		return fmt.Errorf("core: restoring second-moment overlay: %w", err)
	}
	m.prev = vec.Vector(s.prev)
	m.estCache, m.estN = nil, -1
	if len(s.estCache) != 0 {
		m.estCache, m.estN = vec.Vector(s.estCache), s.estN
	}
	return nil
}

// svecLen is the length of svec of a d×d symmetric matrix: its packed upper
// triangle, d(d+1)/2 entries.
func svecLen(d int) int { return d * (d + 1) / 2 }

// unpackSvec turns q, whose first svecLen(d) entries hold the svec of a
// symmetric d×d noise matrix N, into A + unsvec(N) in place, where a is the
// exact Gram A's packed upper triangle (as in vec.SymMatrix): off-diagonal
// noise entries are divided by √2, added to A's and mirrored. svec is an
// isometry, ‖svec(N)‖₂ = ‖N‖_F, so the packed second-moment release keeps the
// L2 sensitivity of a dense d² release, and with it the Tree Mechanism's
// noise scale. Released off-diagonal noise then has variance σ²/2 and
// diagonal noise σ², the distribution of a dense d² release symmetrized as
// (N + Nᵀ)/2, so the read is the same post-processing of an equally private
// release.
//
// In-place is safe: packed row i starts at i·d - i(i-1)/2 ≤ i·d, so rows are
// unpacked last to first and, within a row, right to left; every write lands
// at or after the packed entry it reads, and beyond every packed entry still
// to be read.
func unpackSvec(q *vec.Matrix, a []float64) {
	d := q.Rows()
	data := q.Data()
	for i := d - 1; i >= 0; i-- {
		off := i*d - i*(i-1)/2
		for j := d - 1; j > i; j-- {
			v := a[off+j-i] + data[off+j-i]/math.Sqrt2
			data[i*d+j] = v
			data[j*d+i] = v
		}
		data[i*d+i] = a[off] + data[off]
	}
}
