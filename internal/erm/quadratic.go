package erm

import (
	"errors"
	"fmt"
	"math"

	"privreg/internal/constraint"
	"privreg/internal/dp"
	"privreg/internal/loss"
	"privreg/internal/optimize"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// This file implements the keyed private batch solver: Solver is a reusable
// counter-keyed noisy-projected-gradient workspace. Iteration k of invocation
// i draws its noise as a pure function of (key, i, k) via randx.FillNormalAt,
// never from a sequential generator, so a solve scheduled at a τ boundary can
// be deferred to the next Estimate — or skipped entirely when a later boundary
// supersedes it — and still produce bit-identical output whenever it runs. It
// solves either over MultiStats sufficient statistics (quadratic losses, one
// outcome at a time) or over an explicit dataset.

// Solver is a reusable workspace for counter-keyed private batch ERM solves.
// A solve is a pure function of (problem state, key, invocation index): the
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
	c       constraint.Set
	inplace constraint.InplaceProjector

	theta, next, grad, noise, avg vec.Vector
}

// NewSolver returns a solver workspace over the constraint set c.
func NewSolver(c constraint.Set) *Solver {
	d := c.Dim()
	ip, _ := c.(constraint.InplaceProjector)
	return &Solver{
		c:       c,
		inplace: ip,
		theta:   vec.NewVector(d),
		next:    vec.NewVector(d),
		grad:    vec.NewVector(d),
		noise:   vec.NewVector(d),
		avg:     vec.NewVector(d),
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
	opts.fill(stats.Len())
	lip := f.Lipschitz(sv.c, opts.XBound, opts.YBound)
	return sv.run(stats.Len(), lip, func(dst, theta vec.Vector) {
		stats.GradientInto(dst, theta, i, scale, ridge)
	}, p, key, invocation, opts)
}

// SolveHistory runs the keyed private solve over an explicit dataset, using
// the chunked (GOMAXPROCS-independent) empirical gradient. It is the fallback
// for losses without quadratic sufficient statistics.
func (sv *Solver) SolveHistory(f loss.Function, data []loss.Point, p dp.Params, key int64, invocation uint64, opts PrivateBatchOptions) (vec.Vector, error) {
	if f == nil {
		return nil, errors.New("erm: nil loss")
	}
	opts.fill(len(data))
	lip := f.Lipschitz(sv.c, opts.XBound, opts.YBound)
	return sv.run(len(data), lip, func(dst, theta vec.Vector) {
		loss.EmpiricalGradientInto(f, dst, theta, data)
	}, p, key, invocation, opts)
}

// PrivateBatchAt is the convenience form of Solver.SolveHistory for callers
// that do not retain a workspace (reference implementations in tests, one-off
// solves). It allocates a fresh Solver, so the result is identical to any
// other solver's on the same arguments.
func PrivateBatchAt(f loss.Function, c constraint.Set, data []loss.Point, p dp.Params, key int64, invocation uint64, opts PrivateBatchOptions) (vec.Vector, error) {
	if c == nil {
		return nil, errors.New("erm: nil constraint set")
	}
	return NewSolver(c).SolveHistory(f, data, p, key, invocation, opts)
}

// run is the shared noisy-projected-gradient body in the style of Bassily,
// Smith and Thakurta: each of the R full-gradient evaluations is privatized
// with the Gaussian mechanism (per-datapoint gradient sensitivity 2L), the
// per-iteration budget set by advanced composition over the iterations. The
// noise is keyed, the buffers are reused, and a tolerance-based early stop
// ends the run. The early stop fires only
// when consecutive iterates move less than opts.Tolerance, which genuine
// privacy noise (σ·step per coordinate) keeps far out of reach, so under real
// budgets the full run executes and the Appendix-B iterate average is
// returned; in the negligible-noise regime the stop returns the converged
// final iterate. Either way the trajectory — and therefore the stop decision
// and the output — is a deterministic function of the inputs.
func (sv *Solver) run(n int, lip float64, gradInto func(dst, theta vec.Vector), p dp.Params, key int64, invocation uint64, opts PrivateBatchOptions) (vec.Vector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts.fill(n)
	d := sv.c.Dim()
	if n == 0 {
		return sv.c.Project(vec.NewVector(d)), nil
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
	step := optimize.DefaultStepSize(sv.c.Diameter(), opts.Iterations, gradErr, float64(n)*lip)
	tol := opts.Tolerance
	if tol == 0 {
		tol = defaultSolveTolerance
	} else if tol < 0 {
		tol = 0
	}
	solveKey := randx.SubKey(key, invocation)
	if opts.Start != nil {
		if len(opts.Start) != d {
			return nil, errors.New("erm: start point has wrong dimension")
		}
		sv.theta.CopyFrom(opts.Start)
	} else {
		for i := range sv.theta {
			sv.theta[i] = 0
		}
	}
	sv.projectInPlace(sv.theta)
	for i := range sv.avg {
		sv.avg[i] = 0
	}
	for k := 0; k < opts.Iterations; k++ {
		sv.avg.AddInPlace(sv.theta)
		gradInto(sv.grad, sv.theta)
		randx.FillNormalAt(solveKey, uint64(k), sv.noise, sigma)
		sv.grad.AddInPlace(sv.noise)
		sv.next.CopyFrom(sv.theta)
		vec.Axpy(sv.next, -step, sv.grad)
		sv.projectInPlace(sv.next)
		moved := vec.Dist2(sv.next, sv.theta)
		sv.theta, sv.next = sv.next, sv.theta
		if tol > 0 && moved < tol {
			// Converged: the final iterate is the minimizer; the running
			// average would still carry the early transient.
			return sv.theta.Clone(), nil
		}
	}
	sv.avg.Scale(1 / float64(opts.Iterations))
	return sv.avg.Clone(), nil
}

// defaultSolveTolerance matches the exact solver's convergence threshold; at
// the scale of real privacy noise it never triggers.
const defaultSolveTolerance = 1e-10

// projectInPlace projects x onto the constraint set, in place when the set
// has the capability and through a copy otherwise.
func (sv *Solver) projectInPlace(x vec.Vector) {
	if sv.inplace != nil {
		sv.inplace.ProjectInPlace(x)
		return
	}
	x.CopyFrom(sv.c.Project(x))
}
