package sketch

import (
	"errors"
	"fmt"
	"math"

	"privreg/internal/constraint"
	"privreg/internal/vec"
)

// LiftOptions configures the lifting solver.
type LiftOptions struct {
	// InnerIterations is the projected-gradient budget of each feasibility
	// check (default 400).
	InnerIterations int
	// OuterIterations is the bisection budget on the Minkowski scale
	// (default 25).
	OuterIterations int
	// Tolerance is the residual ‖Φθ - ϑ‖ below which a scale is declared
	// feasible (default 1e-3·(1+‖ϑ‖)).
	Tolerance float64
	// MaxScale bounds the Minkowski scale searched (default 4: the target is
	// in ΦC whenever the mechanism is used as intended, so scales slightly
	// above 1 always suffice; the slack absorbs the ball relaxation).
	MaxScale float64
}

func (o *LiftOptions) fill(target vec.Vector) {
	if o.InnerIterations <= 0 {
		o.InnerIterations = 400
	}
	if o.OuterIterations <= 0 {
		o.OuterIterations = 25
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-3 * (1 + vec.Norm2(target))
	}
	if o.MaxScale <= 0 {
		o.MaxScale = 4
	}
}

// lift solves the convex program of Step 9 of Algorithm 3,
//
//	minimize ‖θ‖_C   subject to   Φθ = ϑ,
//
// for any Transform Φ, and returns the recovered θ ∈ R^d. It works for any
// constraint.Set by bisecting on the Minkowski scale s: for each candidate s
// it checks feasibility of {θ ∈ sC : Φθ ≈ ϑ} by minimizing ‖Φθ - ϑ‖² over sC
// with FISTA (a smooth problem with constant step 1/‖Φ‖²). The smallest
// feasible scale yields the minimizer. If no scale up to MaxScale is feasible,
// the best-effort θ with the smallest residual is returned along with a nil
// error — callers project the result onto C, which keeps the output
// well-defined (and private, since this is post-processing).
func lift(tf Transform, c constraint.Set, target vec.Vector, opts LiftOptions) (vec.Vector, error) {
	if c == nil {
		return nil, errors.New("sketch: nil constraint set")
	}
	m, d := tf.OutputDim(), tf.InputDim()
	if len(target) != m {
		return nil, fmt.Errorf("sketch: lift target has dimension %d, want %d", len(target), m)
	}
	opts.fill(target)

	if vec.Norm2(target) == 0 {
		return vec.NewVector(d), nil
	}

	specUpper := tf.SpectralUpper()
	step := 0.5
	if specUpper > 0 {
		step = 1 / (2 * specUpper * specUpper)
	}
	// FISTA workspace, shared by every feasibility check of this lift: the
	// momentum point, the previous and next iterates, the gradient-step
	// point, the gradient and residual, a check's best iterate (cand) and the
	// best feasible point so far (best).
	y, prev, next, work := vec.NewVector(d), vec.NewVector(d), vec.NewVector(d), vec.NewVector(d)
	grad, cand, best := vec.NewVector(d), vec.NewVector(d), vec.NewVector(d)
	residual := vec.NewVector(m)
	evalResidual := func(th vec.Vector) float64 {
		tf.ApplyTo(residual, th)
		residual.SubInPlace(target)
		return vec.Norm2(residual)
	}
	// projectInto writes the projection of x onto set into dst, in place
	// when the set has the capability.
	projectInto := func(set constraint.Set, dst, x vec.Vector) {
		if ip, ok := set.(constraint.InplaceProjector); ok {
			dst.CopyFrom(x)
			ip.ProjectInPlace(dst)
			return
		}
		dst.CopyFrom(set.Project(x))
	}
	// feasible minimizes f(θ) = ‖Φθ - ϑ‖² over the scaled set with FISTA
	// (accelerated projected gradient; the gradient Lipschitz constant is
	// 2‖Φ‖²) from the projection of start (of the origin when nil). It
	// returns the iterate of smallest residual, in cand (read start before
	// writing it), and that residual.
	feasible := func(scale float64, start vec.Vector) (vec.Vector, float64) {
		set := c.Scale(scale)
		if start == nil {
			work.Zero()
		} else {
			work.CopyFrom(start)
		}
		projectInto(set, y, work)
		prev.CopyFrom(y)
		cand.CopyFrom(y)
		tk := 1.0
		bestRes := math.Inf(1)
		for k := 0; k < opts.InnerIterations; k++ {
			// Gradient step at the momentum point y.
			tf.ApplyTo(residual, y)
			residual.SubInPlace(target)
			tf.ApplyTransposeTo(grad, residual)
			work.CopyFrom(y)
			vec.Axpy(work, -2*step, grad)
			projectInto(set, next, work)
			if res := evalResidual(next); res < bestRes {
				bestRes = res
				cand.CopyFrom(next)
				if res <= opts.Tolerance {
					break
				}
			}
			tNext := (1 + math.Sqrt(1+4*tk*tk)) / 2
			mom := (tk - 1) / tNext
			for i, v := range next {
				y[i] = v + mom*(v-prev[i])
			}
			prev, next = next, prev
			tk = tNext
		}
		return cand, bestRes
	}

	// First check whether the target is reachable within C itself (scale 1).
	th, bestRes := feasible(1, nil)
	best.CopyFrom(th)
	if bestRes <= opts.Tolerance {
		// Bisect downward for the minimum-norm solution, warm-starting each
		// check from the best feasible point.
		lo, hi := 0.0, 1.0
		for i := 0; i < opts.OuterIterations; i++ {
			mid := (lo + hi) / 2
			if mid <= 0 {
				break
			}
			th, res := feasible(mid, best)
			if res <= opts.Tolerance {
				hi = mid
				best.CopyFrom(th)
			} else {
				lo = mid
			}
			if hi-lo <= 1e-4*hi {
				break
			}
		}
		return best, nil
	}
	// Otherwise grow the scale until feasible (handles the ball-relaxed
	// projected domain whose points may fall slightly outside ΦC).
	scale := 1.0
	for scale < opts.MaxScale {
		scale *= 1.25
		th, res := feasible(scale, best)
		if res <= opts.Tolerance {
			return th, nil
		}
		if res < bestRes {
			best.CopyFrom(th)
			bestRes = res
		}
	}
	return best, nil
}
