// Package erm implements batch empirical risk minimization: an exact
// constrained solver used to compute the true minimizers θ̂_t that excess risk
// is measured against, the sufficient-statistics accumulator MultiStats with
// its exact least-squares solve, and the keyed differentially private batch
// ERM solver in the style of Bassily, Smith and Thakurta (noisy projected
// gradient descent with advanced composition) that serves as the black box of
// the paper's generic transformation (Mechanism PRIVINCERM, Section 3).
//
// It holds the repository's two projected-gradient loops: bestIterate, the
// exact solvers' descent that keeps the iterate of least risk, and
// Solver.Descend, the averaged (noisy) descent NOISYPROJGRAD of Appendix B
// that the private batch solver and the regression mechanisms' reads run.
package erm

import (
	"errors"
	"math"

	"privreg/internal/constraint"
	"privreg/internal/loss"
	"privreg/internal/vec"
)

// Exact solver constants: the iteration cap of Exact (and the default of
// ExactStats) and Exact's stop threshold on an iterate's movement.
const (
	exactIterations = 2000
	exactTolerance  = 1e-10
)

// Exact returns (an accurate approximation of) the constrained empirical risk
// minimizer argmin_{θ∈C} Σ_i ℓ(θ; z_i) by projected gradient descent with a
// diminishing step size. For smooth losses on the datasets used here the result
// is accurate to well below the excess-risk scales being measured; tests verify
// it against closed-form solutions where available.
func Exact(f loss.Function, c constraint.Set, data []loss.Point) (vec.Vector, error) {
	if f == nil || c == nil {
		return nil, errors.New("erm: nil loss or constraint set")
	}
	theta := vec.NewVector(c.Dim())
	var proj constraint.Scratch
	c.ProjectInto(theta, theta, &proj)
	if len(data) == 0 {
		return theta, nil
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
	step := 0.0
	if sumSq > 0 {
		step = 1 / (2 * sumSq)
	}
	grad := func(dst, theta vec.Vector) { dst.CopyFrom(loss.EmpiricalGradient(f, theta, data)) }
	risk := func(theta vec.Vector) float64 { return loss.Empirical(f, theta, data) }
	return bestIterate(c, &proj, theta, exactIterations, step, exactTolerance, grad, risk), nil
}

// ExactWorkspace holds the reusable buffers of ExactStats: the dense
// expansion of the packed second-moment matrix, the ridge factorization, the
// power iteration's vectors and the projection scratch. The zero value is
// ready to use; a workspace is not safe for concurrent use.
type ExactWorkspace struct {
	a      *vec.Matrix
	ridge  vec.CholeskyWorkspace
	pv, pu vec.Vector
	proj   constraint.Scratch
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
		iters = exactIterations
	}
	if ws == nil {
		ws = &ExactWorkspace{}
	}
	if s.Len() == 0 {
		origin := vec.NewVector(d)
		if c != nil {
			c.ProjectInto(origin, origin, &ws.proj)
		}
		return origin
	}
	if ws.a == nil || ws.a.Rows() != d {
		ws.a = vec.NewMatrix(d, d)
		ws.pv, ws.pu = vec.NewVector(d), vec.NewVector(d)
	}
	s.a.ToDense(ws.a)
	eps := 1e-10 * (1 + s.a.Trace())
	unconstrained, err := vec.SolveRidgeWith(&ws.ridge, ws.a, s.bs[0], eps)
	if err == nil && (c == nil || c.Contains(unconstrained, 1e-9)) {
		if c != nil {
			c.ProjectInto(unconstrained, unconstrained, &ws.proj)
		}
		return unconstrained
	}
	if c == nil {
		// Unconstrained but singular system: fall back to gradient descent within
		// a generous ball.
		c = constraint.NewL2Ball(d, 1e6)
	}
	// Smoothness constant of the prefix risk is 2·λmax(XᵀX).
	ws.pv.Fill(1)
	lmax := ws.a.PowerIterationSpectralNorm(50, ws.pv, ws.pu)
	step := 0.0
	if lmax > 0 {
		step = 1 / (2 * lmax)
	}
	theta := unconstrained
	if err != nil {
		theta = vec.NewVector(d)
	}
	c.ProjectInto(theta, theta, &ws.proj)
	grad := func(dst, theta vec.Vector) { s.GradientInto(dst, theta, 0, 1, 0) }
	risk := func(theta vec.Vector) float64 { return s.Risk(theta, 0) }
	return bestIterate(c, &ws.proj, theta, iters, step, 1e-12, grad, risk)
}

// bestIterate is the exact solvers' projected gradient descent: from theta (a
// point of c, overwritten), θ_{k+1} = P_C(θ_k − η_k·∇(θ_k)) for at most iters
// steps, projecting with scratch proj, stopping once an iterate moves less
// than tol, and returning the iterate of least risk as a new vector. step > 0
// is a constant η; zero selects the diminishing schedule
// η_k = ‖C‖ / (√(k+1)·(1 + ‖∇(θ_k)‖)).
func bestIterate(c constraint.Set, proj *constraint.Scratch, theta vec.Vector, iters int, step, tol float64, grad func(dst, theta vec.Vector), risk func(vec.Vector) float64) vec.Vector {
	best := theta.Clone()
	bestVal := risk(theta)
	g, next := vec.NewVector(len(theta)), vec.NewVector(len(theta))
	for k := 0; k < iters; k++ {
		grad(g, theta)
		eta := step
		if eta == 0 {
			eta = c.Diameter() / (math.Sqrt(float64(k+1)) * (1 + vec.Norm2(g)))
		}
		next.CopyFrom(theta)
		vec.Axpy(next, -eta, g)
		c.ProjectInto(next, next, proj)
		moved := vec.Dist2(next, theta)
		theta, next = next, theta
		if v := risk(theta); v < bestVal {
			bestVal = v
			best.CopyFrom(theta)
		}
		if moved < tol {
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
}
