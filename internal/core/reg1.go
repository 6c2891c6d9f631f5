package core

import (
	"errors"
	"fmt"
	"math"

	"privreg/internal/constraint"
	"privreg/internal/dp"
	"privreg/internal/loss"
	"privreg/internal/optimize"
	"privreg/internal/randx"
	"privreg/internal/tree"
	"privreg/internal/vec"
)

// RegressionOptions configures the two private incremental regression
// mechanisms (Algorithms 2 and 3).
type RegressionOptions struct {
	// MinIterations / MaxIterations clamp the noisy-projected-gradient budget r
	// of each Estimate call. The paper's setting r = Θ((1 + T‖C‖/α')²) can be
	// astronomically large for small noise scales; the clamp trades a little
	// optimization accuracy (never the dominant error term in practice) for
	// bounded per-timestep cost. Defaults: 50 and 400.
	MinIterations, MaxIterations int
	// WarmStart reuses the previous timestep's estimate as the optimizer's
	// starting point instead of restarting from the projection of the origin.
	// This is the ablation toggled by BenchmarkAblationWarmStart.
	WarmStart bool
	// ConfidenceBeta is the failure probability β used to size noise-dependent
	// quantities such as the gradient-error scale (default 0.05).
	ConfidenceBeta float64
	// UseHybridTree switches the continual-sum substrate from the fixed-horizon
	// Tree Mechanism to the Hybrid Mechanism, removing the need for an accurate
	// horizon (footnote 13 of the paper). The horizon is then only used to size
	// the gradient-error scale α' and, through it, the iteration count.
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
	if o.ConfidenceBeta <= 0 || o.ConfidenceBeta >= 1 {
		o.ConfidenceBeta = 0.05
	}
}

// GradientRegression is Algorithm PRIVINCREG1 (Section 4): private incremental
// linear regression with a private gradient function maintained by two Tree
// Mechanism instances — one for the first-moment stream x_t·y_t and one for the
// second-moment stream svec(x_t x_tᵀ), the packed isometric embedding of the
// outer product — each holding half of the privacy budget. At
// any timestep the current regression estimate is obtained by running noisy
// projected gradient descent against the private gradient, which is free
// post-processing. Its worst-case excess risk is O(√d·log^{3/2}T·‖C‖²/ε)
// (Theorem 4.2), tight in general.
type GradientRegression struct {
	c       constraint.Set
	privacy dp.Params
	horizon int
	opts    RegressionOptions

	sumXY  tree.Mechanism
	sumXXT tree.Mechanism
	// gradErr is the α' scale of Definition 5 for the current horizon.
	gradErr float64
	d       int
	n       int
	prev    vec.Vector
	// estCache memoizes the estimate computed at observation count estN
	// (estN < 0 = none): Estimate is deterministic post-processing of the
	// private state, so while no new points arrive the previous solution is
	// returned instead of re-running the optimizer.
	estCache vec.Vector
	estN     int
	// Reusable per-timestep buffers keeping Observe allocation-free.
	xWork    vec.Vector
	xyWork   []float64
	svecWork []float64
	// grad is the read workspace of Gradient, allocated at the first read
	// and refilled in place by every later one.
	grad PrivateGradient
}

// NewGradientRegression returns Algorithm PRIVINCREG1 over the constraint set c
// with total privacy budget p and stream horizon T.
func NewGradientRegression(c constraint.Set, p dp.Params, horizon int, src *randx.Source, opts RegressionOptions) (*GradientRegression, error) {
	if c == nil {
		return nil, errors.New("core: nil constraint set")
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
	half := p.Halve()

	// Both streams have L2-sensitivity at most 2: ‖x·y‖ ≤ 1 and
	// ‖svec(x xᵀ)‖₂ = ‖x xᵀ‖_F ≤ 1 under the input normalization, so any two
	// domain elements are at distance at most 2.
	const sensitivity = 2.0
	p2 := svecLen(d)

	var sumXY, sumXXT tree.Mechanism
	var err error
	if opts.UseHybridTree {
		sumXY, err = tree.NewHybrid(d, sensitivity, half, src.Split())
		if err != nil {
			return nil, err
		}
		sumXXT, err = tree.NewHybrid(p2, sensitivity, half, src.Split())
		if err != nil {
			return nil, err
		}
	} else {
		sumXY, err = tree.New(tree.Config{Dim: d, MaxLen: horizon, Sensitivity: sensitivity, Privacy: half}, src.Split())
		if err != nil {
			return nil, err
		}
		sumXXT, err = tree.New(tree.Config{Dim: p2, MaxLen: horizon, Sensitivity: sensitivity, Privacy: half}, src.Split())
		if err != nil {
			return nil, err
		}
	}

	g := &GradientRegression{
		c:        c,
		privacy:  p,
		horizon:  horizon,
		opts:     opts,
		sumXY:    sumXY,
		sumXXT:   sumXXT,
		d:        d,
		prev:     c.Project(vec.NewVector(d)),
		estN:     -1,
		xWork:    vec.NewVector(d),
		xyWork:   make([]float64, d),
		svecWork: make([]float64, p2),
	}
	g.gradErr = gradientErrorScale(sumXY, sumXXT, horizon, d, c.Diameter(), opts.ConfidenceBeta)
	return g, nil
}

// Name implements Estimator.
func (g *GradientRegression) Name() string { return "priv-inc-reg1" }

// Observe implements Estimator: fold the point into both private running sums.
// The steady-state path performs no heap allocation — clamping, the x·y
// scaling, and the svec(x xᵀ) packing all reuse per-mechanism buffers, and the
// Tree Mechanism updates go through the allocation-free AddTo entry point.
func (g *GradientRegression) Observe(p loss.Point) error {
	if !g.opts.UseHybridTree && g.n >= g.horizon {
		return ErrStreamFull
	}
	if len(p.X) != g.d {
		return fmt.Errorf("core: covariate dimension %d does not match constraint dimension %d", len(p.X), g.d)
	}
	return g.observeValidated(p)
}

// ObserveBatch implements Estimator: fold a contiguous run of points into the
// private running sums. The batch is validated up front — dimensions and
// horizon capacity — so it is consumed whole or not at all, and the Tree
// Mechanism updates run with deferred sum aggregation, leaving the
// O(levels·d(d+1)/2) running-sum aggregation to the next read instead of
// paying it per point. Private state and randomness consumption are identical
// to a scalar Observe loop.
func (g *GradientRegression) ObserveBatch(ps []loss.Point) error {
	if !g.opts.UseHybridTree && g.n+len(ps) > g.horizon {
		return ErrStreamFull
	}
	for i := range ps {
		if len(ps[i].X) != g.d {
			return fmt.Errorf("core: batch element %d dimension %d does not match constraint dimension %d", i, len(ps[i].X), g.d)
		}
	}
	for i := range ps {
		if err := g.observeValidated(ps[i]); err != nil {
			return err
		}
	}
	return nil
}

// observeValidated is the dimension-checked body shared by Observe and
// ObserveBatch.
func (g *GradientRegression) observeValidated(p loss.Point) error {
	y := clampInto(g.xWork, p.X, p.Y)
	for i, v := range g.xWork {
		g.xyWork[i] = y * v
	}
	if err := g.sumXY.AddTo(nil, g.xyWork); err != nil {
		return err
	}
	svecOuter(g.svecWork, g.xWork)
	if err := g.sumXXT.AddTo(nil, g.svecWork); err != nil {
		return err
	}
	g.n++
	return nil
}

// Gradient returns the current private gradient function (Definition 5). It
// may be evaluated any number of times without privacy cost. The returned
// structure is the mechanism's read workspace: the released sums are written
// into it in place, so it is valid until the next Gradient or Estimate call.
func (g *GradientRegression) Gradient() *PrivateGradient {
	readGradient(&g.grad, g.sumXY, g.sumXXT, g.d)
	return &g.grad
}

// Estimate implements Estimator: run noisy projected gradient descent against
// the current private gradient function. With no new observations since the
// previous call, the memoized solution is returned. Without warm starts the
// skipped recomputation would have produced the identical vector; with
// WarmStart the memo pins the *first* solution at this timestep (a repeat
// call previously refined from the warm-start iterate) — a deliberate,
// equally valid semantics that the serialized memo keeps consistent across
// checkpoint/restore.
func (g *GradientRegression) Estimate() (vec.Vector, error) {
	if g.estN == g.n && g.estCache != nil {
		return g.estCache.Clone(), nil
	}
	pg := g.Gradient()
	lip := 2 * float64(maxInt(g.n, 1)) * (1 + g.c.Diameter()) // Lipschitz bound of the accumulated exact gradient
	iters := optimize.IterationsForTargetError(lip*g.c.Diameter(), g.gradErr, g.opts.MinIterations, g.opts.MaxIterations)
	opts := optimize.Options{
		Iterations: iters,
		Lipschitz:  lip,
		GradError:  g.gradErr,
		Average:    true,
		StepSize:   smoothStepSize(pg, lip, g.gradErr, g.c.Diameter(), iters),
	}
	if g.opts.WarmStart {
		opts.Start = g.prev
	}
	res, err := optimize.NoisyProjected(g.c, pg.Func(), opts)
	if err != nil {
		return nil, err
	}
	g.prev = res.Theta.Clone()
	g.estCache = res.Theta.Clone()
	g.estN = g.n
	return res.Theta, nil
}

// Len implements Estimator.
func (g *GradientRegression) Len() int { return g.n }

// StateBytes reports the retained per-stream memory of the mechanism: both
// continual-sum mechanisms (per-level partial sums and noise memos), the
// ingest buffers, the iterates and, once a read has allocated it, the
// gradient workspace. O(1); the serving store reads it on every access.
func (g *GradientRegression) StateBytes() int {
	return g.sumXY.Bytes() + g.sumXXT.Bytes() + g.grad.bytes() +
		8*(len(g.prev)+len(g.estCache)+len(g.xWork)+len(g.xyWork)+len(g.svecWork))
}

// Privacy implements Estimator.
func (g *GradientRegression) Privacy() dp.Params { return g.privacy }

// GradientErrorScale exposes α', the high-probability gradient approximation
// error of the private gradient function, for diagnostics and experiments.
func (g *GradientRegression) GradientErrorScale() float64 { return g.gradErr }

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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
