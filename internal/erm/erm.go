// Package erm implements batch empirical risk minimization: an exact
// constrained solver used to compute the true minimizers θ̂_t that excess risk
// is measured against, the sufficient-statistics accumulator MultiStats with
// its exact least-squares solve, and the keyed differentially private batch
// ERM solver in the style of Bassily, Smith and Thakurta (noisy projected
// gradient descent with advanced composition) that serves as the black box of
// the paper's generic transformation (Mechanism PRIVINCERM, Section 3).
package erm

import (
	"errors"
	"math"

	"privreg/internal/constraint"
	"privreg/internal/loss"
	"privreg/internal/vec"
)

// ExactOptions configures the exact batch solver.
type ExactOptions struct {
	// Iterations is the number of projected gradient steps (default 2000).
	Iterations int
	// Tolerance stops early when consecutive iterates move less than this in
	// Euclidean norm (default 1e-10).
	Tolerance float64
	// Start optionally warm-starts the solver.
	Start vec.Vector
}

func (o *ExactOptions) fill() {
	if o.Iterations <= 0 {
		o.Iterations = 2000
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-10
	}
}

// Exact returns (an accurate approximation of) the constrained empirical risk
// minimizer argmin_{θ∈C} Σ_i ℓ(θ; z_i) by projected gradient descent with a
// diminishing step size. For smooth losses on the datasets used here the result
// is accurate to well below the excess-risk scales being measured; tests verify
// it against closed-form solutions where available.
func Exact(f loss.Function, c constraint.Set, data []loss.Point, opts ExactOptions) (vec.Vector, error) {
	if f == nil || c == nil {
		return nil, errors.New("erm: nil loss or constraint set")
	}
	opts.fill()
	n := len(data)
	if n == 0 {
		return c.Project(vec.NewVector(c.Dim())), nil
	}
	// Estimate a smoothness constant: for the losses in this library the
	// empirical gradient is Lipschitz with constant at most 2 Σ ‖x_i‖², so a
	// step of 1/(2 Σ ‖x_i‖²) is safe; fall back to a diminishing schedule when
	// that is degenerate.
	var sumSq float64
	for _, z := range data {
		nx := vec.Norm2(z.X)
		sumSq += nx * nx
	}
	base := 0.0
	if sumSq > 0 {
		base = 1 / (2 * sumSq)
	}
	theta := c.Project(vec.NewVector(c.Dim()))
	if opts.Start != nil {
		theta = c.Project(opts.Start)
	}
	best := theta.Clone()
	bestVal := loss.Empirical(f, theta, data)
	work := vec.NewVector(c.Dim())
	for k := 0; k < opts.Iterations; k++ {
		g := loss.EmpiricalGradient(f, theta, data)
		step := base
		if step == 0 {
			step = c.Diameter() / (math.Sqrt(float64(k+1)) * (1 + vec.Norm2(g)))
		}
		work.CopyFrom(theta)
		vec.Axpy(work, -step, g)
		next := c.Project(work)
		moved := vec.Dist2(next, theta)
		theta = next
		if v := loss.Empirical(f, theta, data); v < bestVal {
			bestVal = v
			best.CopyFrom(theta)
		}
		if moved < opts.Tolerance {
			break
		}
	}
	return best, nil
}

// ExactWorkspace holds the reusable buffers of ExactStats: the dense
// expansion of the packed second-moment matrix and the ridge factorization.
// The zero value is ready to use; a workspace is not safe for concurrent use.
type ExactWorkspace struct {
	a     *vec.Matrix
	ridge vec.RidgeWorkspace
}

// ExactStats returns the exact constrained least-squares minimizer of outcome
// 0 of the statistics over c (c may be nil for unconstrained least squares).
// The unconstrained solution is attempted first via the (ridge-stabilized)
// normal equations; when it is feasible it is optimal and is returned
// directly, otherwise projected gradient descent on the statistics runs iters
// steps (default 2000 when iters <= 0) and returns the best iterate. It is the
// non-private ground-truth oracle behind the excess-risk metrics. ws may be
// nil (a transient workspace is used).
func ExactStats(ws *ExactWorkspace, s *MultiStats, c constraint.Set, iters int) vec.Vector {
	d := s.Dim()
	if iters <= 0 {
		iters = 2000
	}
	if s.Len() == 0 {
		if c != nil {
			return c.Project(vec.NewVector(d))
		}
		return vec.NewVector(d)
	}
	if ws == nil {
		ws = &ExactWorkspace{}
	}
	if ws.a == nil || ws.a.Rows() != d {
		ws.a = vec.NewMatrix(d, d)
	}
	s.a.ToDense(ws.a)
	eps := 1e-10 * (1 + s.a.Trace())
	unconstrained, err := vec.SolveRidgeWith(&ws.ridge, ws.a, s.bs[0], eps)
	if err == nil && (c == nil || c.Contains(unconstrained, 1e-9)) {
		if c == nil {
			return unconstrained
		}
		return c.Project(unconstrained)
	}
	if c == nil {
		// Unconstrained but singular system: fall back to gradient descent within
		// a generous ball.
		c = constraint.NewL2Ball(d, 1e6)
	}
	// Smoothness constant of the prefix risk is 2·λmax(XᵀX).
	lmax := ws.a.PowerIterationSpectralNorm(50, nil)
	step := 0.0
	if lmax > 0 {
		step = 1 / (2 * lmax)
	}
	theta := c.Project(vec.NewVector(d))
	if err == nil {
		theta = c.Project(unconstrained)
	}
	best := theta.Clone()
	bestVal := s.Risk(theta, 0)
	g := vec.NewVector(d)
	work := vec.NewVector(d)
	for k := 0; k < iters; k++ {
		s.GradientInto(g, theta, 0, 1, 0)
		eta := step
		if eta == 0 {
			eta = c.Diameter() / (math.Sqrt(float64(k+1)) * (1 + vec.Norm2(g)))
		}
		work.CopyFrom(theta)
		vec.Axpy(work, -eta, g)
		next := c.Project(work)
		moved := vec.Dist2(next, theta)
		theta = next
		if v := s.Risk(theta, 0); v < bestVal {
			bestVal = v
			best.CopyFrom(theta)
		}
		if moved < 1e-12 {
			break
		}
	}
	return best
}

// PrivateBatchOptions configures the private batch ERM solver.
type PrivateBatchOptions struct {
	// Iterations is the number of noisy gradient steps (default: 50 + √n,
	// capped at 400). Each iteration touches the whole dataset once.
	Iterations int
	// XBound and YBound are the data normalization bounds used to derive the
	// Lipschitz constant (defaults 1 and 1).
	XBound, YBound float64
	// Start optionally warm-starts the solver (it is projected onto C first).
	Start vec.Vector
	// Tolerance configures the keyed Solver's early stop: the solve ends when
	// consecutive iterates move less than this in Euclidean norm, returning
	// the converged final iterate. Zero selects the default (1e-10, the exact
	// solver's threshold — far below any real privacy-noise scale, so under
	// genuine budgets the full run executes and the iterate average is
	// returned); negative disables the stop. The stop decision is a
	// deterministic function of the solver's inputs, because the keyed noise
	// — and therefore the whole trajectory — is.
	Tolerance float64
}

func (o *PrivateBatchOptions) fill(n int) {
	if o.Iterations <= 0 {
		o.Iterations = 50 + int(math.Sqrt(float64(n)))
		if o.Iterations > 400 {
			o.Iterations = 400
		}
	}
	if o.XBound <= 0 {
		o.XBound = 1
	}
	if o.YBound <= 0 {
		o.YBound = 1
	}
}
