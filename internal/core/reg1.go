package core

import (
	"errors"
	"math"

	"privreg/internal/constraint"
	"privreg/internal/dp"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// RegressionOptions configures the two private incremental regression
// mechanisms (Algorithms 2 and 3).
type RegressionOptions struct {
	// MinIterations / MaxIterations clamp the noisy-projected-gradient budget r
	// of each Estimate call. The paper's setting r = Θ((1 + T‖C‖/α')²) can be
	// astronomically large for small noise scales; the clamp trades a little
	// optimization accuracy (never the dominant error term in practice) for
	// bounded per-timestep cost. Defaults: 50 and 400. They govern only solve
	// domains other than an L2 ball: an L2 ball is read exactly, as a
	// trust-region problem, with no iteration budget.
	MinIterations, MaxIterations int
	// WarmStart reuses the previous timestep's estimate as the optimizer's
	// starting point instead of restarting from the projection of the origin.
	// Like the iteration clamp it governs only non-ball solve domains. This is
	// the ablation toggled by BenchmarkAblationWarmStart, which runs over an
	// L1 ball.
	WarmStart bool
	// UseHybridTree switches the continual-sum substrate from the fixed-horizon
	// Tree Mechanism to the Hybrid Mechanism, removing the need for an accurate
	// horizon (footnote 13 of the paper). The horizon is then only used to size
	// the noise bounds: the gradient-error scale α' (and, through it, the
	// iteration count) and the exact read's ridge floor.
	UseHybridTree bool
}

func (o *RegressionOptions) fill() {
	if o.MinIterations <= 0 {
		o.MinIterations = 50
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 400
	}
	if o.MaxIterations < o.MinIterations {
		o.MaxIterations = o.MinIterations
	}
}

// GradientRegression is Algorithm PRIVINCREG1 (Section 4): private incremental
// linear regression with a private gradient function released through two
// Tree Mechanism noise overlays on exact sums — one for the first-moment
// stream x_t·y_t and one for the second-moment stream svec(x_t x_tᵀ), the
// packed isometric embedding of the outer product — each holding half of the
// privacy budget. At
// any timestep the current regression estimate is obtained by minimizing the
// privatized objective — exactly over an L2 ball, by noisy projected
// gradient descent against the private gradient otherwise — which is free
// post-processing. Its worst-case excess risk is O(√d·log^{3/2}T·‖C‖²/ε)
// (Theorem 4.2), tight in general. It is the private-moment core run on the
// clamped covariates, solving over C itself.
type GradientRegression struct {
	privateMoments
}

// NewGradientRegression returns Algorithm PRIVINCREG1 over the constraint set c
// with total privacy budget p and stream horizon T.
func NewGradientRegression(c constraint.Set, p dp.Params, horizon int, src *randx.Source, opts RegressionOptions) (*GradientRegression, error) {
	if c == nil {
		return nil, errors.New("core: nil constraint set")
	}
	if err := checkRegression(p, horizon, src); err != nil {
		return nil, err
	}
	opts.fill()
	m, err := newPrivateMoments(c.Dim(), c, p, horizon, src, opts)
	if err != nil {
		return nil, err
	}
	return &GradientRegression{privateMoments: m}, nil
}

// Name implements Estimator.
func (g *GradientRegression) Name() string { return "priv-inc-reg1" }

// ObserveRows implements Estimator: clamp each row's covariate into the unit
// ball, straight into the exact statistics' row stage, without heap
// allocation. The batch is validated up front — whole rows and horizon
// capacity — so it is consumed whole or not at all.
func (g *GradientRegression) ObserveRows(xs, ys []float64) error {
	if err := g.admit(xs, ys); err != nil {
		return err
	}
	d := g.inDim
	st := g.stats.Stage()
	for r, y := range ys {
		x, yb := st.Next()
		yb[0] = clampInto(x, xs[r*d:(r+1)*d], y)
	}
	st.Release()
	return nil
}

// Estimate implements Estimator: minimize the privatized objective over C
// (exactly over an L2 ball, by noisy projected gradient descent otherwise),
// memoized per timestep.
func (g *GradientRegression) Estimate() (vec.Vector, error) { return g.estimate(nil) }

// StateBytes reports the retained per-stream memory of the mechanism: the
// core's exact statistics, estimate memo, buffers and read workspace, O(d²)
// at any horizon. O(1) to compute; the serving store reads it on every
// access.
func (g *GradientRegression) StateBytes() int { return g.bytes() }

// ExcessRiskBoundReg1 returns the leading term of the Theorem 4.2 bound,
// log^{3/2}T·√(log(1/δ))·‖C‖²·(√d + √log(T/β))/ε, capped at the trivial bound.
// Used to annotate experiment output.
func ExcessRiskBoundReg1(horizon, dim int, diameter float64, p dp.Params, beta float64) float64 {
	if beta <= 0 || beta >= 1 {
		beta = 0.05
	}
	trivial := 2 * float64(horizon) * diameter * (1 + diameter)
	if p.Delta <= 0 {
		return trivial
	}
	lt := math.Log(float64(horizon) + 2)
	b := math.Pow(lt, 1.5) * math.Sqrt(math.Log(1/p.Delta)) * diameter * diameter *
		(math.Sqrt(float64(dim)) + math.Sqrt(math.Log(float64(horizon)/beta))) / p.Epsilon
	return math.Min(b, trivial)
}
