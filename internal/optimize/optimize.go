// Package optimize implements the first-order constrained convex optimizer
// the mechanisms rely on: the noisy projected gradient descent procedure
// NOISYPROJGRAD analyzed in Appendix B of the paper (exact projected gradient
// descent is its noise-free special case).
//
// All optimizers consume a GradientFunc — in the private mechanisms this is a
// *private gradient function* (Definition 5), so evaluating it any number of
// times is free post-processing of already-privatized state and does not
// consume additional privacy budget.
package optimize

import (
	"errors"
	"math"

	"privreg/internal/constraint"
	"privreg/internal/vec"
)

// GradientFunc returns (an approximation of) the gradient of the objective at
// theta. It must not modify theta.
type GradientFunc func(theta vec.Vector) vec.Vector

// Options configures the projected gradient optimizers.
type Options struct {
	// Iterations r is the number of gradient steps. Must be positive.
	Iterations int
	// StepSize is the constant step size η. When zero, the step size is set to
	// ‖C‖ / (√r · (GradError + Lipschitz)) as in Proposition B.1.
	StepSize float64
	// Lipschitz is the bound L on the true gradient norm, used for the default
	// step size. Ignored when StepSize > 0.
	Lipschitz float64
	// GradError is the bound α on the gradient approximation error, used for
	// the default step size. Ignored when StepSize > 0.
	GradError float64
	// Start is the initial iterate; it is projected onto the constraint set
	// before use. When nil, the projection of the origin is used.
	Start vec.Vector
	// Average controls whether the returned iterate is the running average
	// θ̄ = (1/r) Σ θ_k (as in the Appendix-B analysis, true by default via
	// NoisyProjected) or the final iterate.
	Average bool
}

// Result carries the output of an optimizer run.
type Result struct {
	// Theta is the returned iterate (average or last, per Options.Average).
	Theta vec.Vector
	// Last is the final iterate θ_{r+1}.
	Last vec.Vector
	// Iterations is the number of steps actually performed.
	Iterations int
}

// DefaultStepSize returns the constant step size η = ‖C‖ / (√r (α + L)) used in
// Proposition B.1.
func DefaultStepSize(diameter float64, iterations int, gradError, lipschitz float64) float64 {
	denom := math.Sqrt(float64(iterations)) * (gradError + lipschitz)
	if denom <= 0 {
		return 1
	}
	return diameter / denom
}

// NoisyProjected runs the NOISYPROJGRAD procedure of Appendix B: r rounds of
// θ_{k+1} = P_C(θ_k - η·g(θ_k)) followed by averaging. With a gradient oracle
// whose error is at most α (with high probability per call), Proposition B.1
// guarantees excess objective at most (α+L)‖C‖/√r + α‖C‖, and Corollary B.2
// shows r = (1 + L/α)² steps suffice for excess 2α‖C‖.
func NoisyProjected(c constraint.Set, grad GradientFunc, opts Options) (Result, error) {
	if c == nil || grad == nil {
		return Result{}, errors.New("optimize: nil constraint set or gradient function")
	}
	if opts.Iterations <= 0 {
		return Result{}, errors.New("optimize: iteration count must be positive")
	}
	d := c.Dim()
	step := opts.StepSize
	if step <= 0 {
		step = DefaultStepSize(c.Diameter(), opts.Iterations, opts.GradError, opts.Lipschitz)
	}
	var theta vec.Vector
	if opts.Start != nil {
		if len(opts.Start) != d {
			return Result{}, errors.New("optimize: start point has wrong dimension")
		}
		theta = c.Project(opts.Start)
	} else {
		theta = c.Project(vec.NewVector(d))
	}
	avg := vec.NewVector(d)
	work := vec.NewVector(d)
	for k := 0; k < opts.Iterations; k++ {
		avg.AddInPlace(theta)
		g := grad(theta)
		if len(g) != d {
			return Result{}, errors.New("optimize: gradient has wrong dimension")
		}
		work.CopyFrom(theta)
		vec.Axpy(work, -step, g)
		theta = c.Project(work)
	}
	avg.Scale(1 / float64(opts.Iterations))
	out := avg
	if !opts.Average {
		out = theta.Clone()
	}
	return Result{Theta: out, Last: theta.Clone(), Iterations: opts.Iterations}, nil
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
