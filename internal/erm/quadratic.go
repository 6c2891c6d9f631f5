package erm

import (
	"errors"
	"fmt"
	"math"

	"privreg/internal/constraint"
	"privreg/internal/dp"
	"privreg/internal/loss"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// This file implements the averaged projected-gradient loop, Solver.Descend,
// and on it the keyed private batch solver: Solver is a reusable
// counter-keyed noisy-projected-gradient workspace. Iteration k of invocation
// i draws its noise as a pure function of (key, i, k) via randx.FillNormalAt,
// never from a sequential generator, so a solve scheduled at a τ boundary can
// be deferred to the next Estimate — or skipped entirely when a later boundary
// supersedes it — and still produce bit-identical output whenever it runs. It
// solves either over MultiStats sufficient statistics (quadratic losses, one
// outcome at a time) or over an explicit dataset.

// Solver is a reusable workspace for counter-keyed private batch ERM solves
// and, through Descend, for any averaged projected-gradient run. A keyed
// solve is a pure function of (problem state, key, invocation index): the
// per-iteration Gaussian noise is randx.FillNormalAt(SubKey(key, invocation),
// iteration, ·, σ), so the output does not depend on when the solve runs, how
// many other solves ran before it, or whether any scheduled solve was skipped.
// The workspace buffers are fully overwritten by each call — a Solver carries
// no state between solves (deliberately: cross-solve warm starts would make
// the output depend on which earlier solves executed, breaking the deferral
// and skip semantics).
//
// A Solver is not safe for concurrent use.
type Solver struct {
	c constraint.Set

	theta, next, grad, noise, avg vec.Vector
	proj                          constraint.Scratch
}

// NewSolver returns a solver workspace over the constraint set c.
func NewSolver(c constraint.Set) *Solver {
	d := c.Dim()
	return &Solver{
		c:     c,
		theta: vec.NewVector(d),
		next:  vec.NewVector(d),
		grad:  vec.NewVector(d),
		noise: vec.NewVector(d),
		avg:   vec.NewVector(d),
	}
}

// SolveStats runs the keyed private solve over outcome i of the quadratic
// sufficient statistics. f must satisfy loss.AsQuadratic; the statistics must
// have been folded from data clamped to the bounds in opts.
func (sv *Solver) SolveStats(f loss.Function, stats *MultiStats, i int, p dp.Params, key int64, invocation uint64, opts PrivateBatchOptions) (vec.Vector, error) {
	scale, ridge, ok := loss.AsQuadratic(f)
	if !ok {
		return nil, fmt.Errorf("erm: loss %q has no quadratic sufficient statistics", f.Name())
	}
	if stats.Dim() != sv.c.Dim() {
		return nil, errors.New("erm: statistics dimension mismatch")
	}
	lip := f.Lipschitz(sv.c, 1, 1)
	// Every iteration multiplies by the Gram matrix, so it is unpacked once
	// into a dense scratch borrowed for this solve. The dense product sums
	// each row from zero over ascending columns, which is the packed
	// MulVecTo's order, so the gradient keeps its bits.
	d := stats.Dim()
	buf := randx.GetBuf(d * d)
	defer randx.PutBuf(buf)
	gram := vec.MatrixOver(d, d, *buf)
	stats.Gram().ToDense(gram)
	return sv.run(stats.Len(), lip, func(dst, theta vec.Vector) {
		gram.MulVecTo(dst, theta)
		stats.gradientFrom(dst, theta, i, scale, ridge)
	}, p, key, invocation, opts)
}

// SolveHistory runs the keyed private solve over an explicit dataset, using
// the chunked (GOMAXPROCS-independent) empirical gradient. It is the fallback
// for losses without quadratic sufficient statistics.
func (sv *Solver) SolveHistory(f loss.Function, data []loss.Point, p dp.Params, key int64, invocation uint64, opts PrivateBatchOptions) (vec.Vector, error) {
	if f == nil {
		return nil, errors.New("erm: nil loss")
	}
	lip := f.Lipschitz(sv.c, 1, 1)
	return sv.run(len(data), lip, func(dst, theta vec.Vector) {
		loss.EmpiricalGradientInto(f, dst, theta, data)
	}, p, key, invocation, opts)
}

// run is the keyed private solve in the style of Bassily, Smith and
// Thakurta: Descend's averaged noisy projected gradient, where each of the R
// full-gradient evaluations is privatized with the Gaussian mechanism
// (per-datapoint gradient sensitivity 2L), the per-iteration budget set by
// advanced composition over the iterations, and iteration k's noise is
// randx.FillNormalAt(SubKey(key, invocation), k, ·, σ). The tolerance stop
// fires only when consecutive iterates move less than opts.Tolerance, which
// genuine privacy noise (σ·step per coordinate) keeps far out of reach, so
// under real budgets the full run executes and the Appendix-B iterate average
// is returned; in the negligible-noise regime the stop returns the converged
// final iterate. Either way the trajectory — and therefore the stop decision
// and the output — is a deterministic function of the inputs.
func (sv *Solver) run(n int, lip float64, gradInto func(dst, theta vec.Vector), p dp.Params, key int64, invocation uint64, opts PrivateBatchOptions) (vec.Vector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts.fill(n)
	d := sv.c.Dim()
	if n == 0 {
		origin := vec.NewVector(d)
		sv.c.ProjectInto(origin, origin, &sv.proj)
		return origin, nil
	}
	perIter, err := dp.PerInvocationAdvanced(p, opts.Iterations)
	if err != nil {
		return nil, err
	}
	// Changing one datapoint changes the summed gradient by at most 2L in L2.
	sigma, err := dp.GaussianSigma(2*lip, perIter)
	if err != nil {
		return nil, err
	}
	gradErr := sigma * math.Sqrt(float64(d))
	step := DefaultStepSize(sv.c.Diameter(), opts.Iterations, gradErr, float64(n)*lip)
	tol := opts.Tolerance
	if tol == 0 {
		tol = exactTolerance
	} else if tol < 0 {
		tol = 0
	}
	solveKey := randx.SubKey(key, invocation)
	theta := sv.Descend(nil, opts.Iterations, step, tol, func(dst, theta vec.Vector, k int) {
		gradInto(dst, theta)
		randx.FillNormalAt(solveKey, uint64(k), sv.noise, sigma)
		dst.AddInPlace(sv.noise)
	})
	return theta.Clone(), nil
}

// Descend runs NOISYPROJGRAD (Appendix B of the paper) in the solver's
// workspace: iters rounds of θ_{k+1} = P_C(θ_k − step·g_k) from the
// projection of start (of the origin when start is nil), where grad writes
// g_k, the possibly noisy gradient at θ_k in round k, into dst. It returns the
// iterate average θ̄ = (1/r) Σ θ_k. With a gradient oracle whose error is at
// most α, Proposition B.1 bounds the excess objective of θ̄ by
// (α+L)‖C‖/√r + α‖C‖ at the step DefaultStepSize, and Corollary B.2 shows
// r = (1 + L/α)² rounds reach 2α‖C‖. When tol > 0 and an iterate moves less
// than tol, the run stops and returns that iterate instead. The returned
// vector is solver workspace, valid until the solver's next solve; iters must
// be positive.
func (sv *Solver) Descend(start vec.Vector, iters int, step, tol float64, grad func(dst, theta vec.Vector, k int)) vec.Vector {
	if iters <= 0 {
		panic("erm: iteration count must be positive")
	}
	if start == nil {
		sv.theta.Zero()
	} else {
		sv.theta.CopyFrom(start)
	}
	sv.c.ProjectInto(sv.theta, sv.theta, &sv.proj)
	sv.avg.Zero()
	for k := 0; k < iters; k++ {
		sv.avg.AddInPlace(sv.theta)
		grad(sv.grad, sv.theta, k)
		sv.next.CopyFrom(sv.theta)
		vec.Axpy(sv.next, -step, sv.grad)
		sv.c.ProjectInto(sv.next, sv.next, &sv.proj)
		sv.theta, sv.next = sv.next, sv.theta
		if tol > 0 && vec.Dist2(sv.theta, sv.next) < tol {
			// Converged: the final iterate is the minimizer; the running
			// average would still carry the early transient.
			return sv.theta
		}
	}
	sv.avg.Scale(1 / float64(iters))
	return sv.avg
}

// DefaultStepSize returns the constant step size η = ‖C‖ / (√r (α + L)) of
// Proposition B.1, or 1 when α + L is not positive.
func DefaultStepSize(diameter float64, iterations int, gradError, lipschitz float64) float64 {
	denom := math.Sqrt(float64(iterations)) * (gradError + lipschitz)
	if denom <= 0 {
		return 1
	}
	return diameter / denom
}

// IterationsForTargetError returns the iteration count r = Θ((1 + T‖C‖/α')²)
// used by Algorithms 2 and 3 of the paper, where α' is the gradient-error scale
// and T‖C‖ plays the role of the Lipschitz constant of the accumulated loss.
// The count is clamped to [minIters, maxIters] to keep runtimes sane.
func IterationsForTargetError(lipschitz, gradError float64, minIters, maxIters int) int {
	if gradError <= 0 {
		return maxIters
	}
	ratio := 1 + lipschitz/gradError
	r := int(math.Ceil(ratio * ratio))
	if r < minIters {
		r = minIters
	}
	if maxIters > 0 && r > maxIters {
		r = maxIters
	}
	return r
}
