package erm

import (
	"math"

	"privreg/internal/vec"
)

// TrustRegion is a reusable workspace for the exact solve of the
// trust-region subproblem
//
//	minimize θᵀAθ − 2bᵀθ   subject to   ‖θ‖ ≤ R
//
// for a symmetric, possibly indefinite A, by the method of Moré and Sorensen
// ("Computing a trust region step", 1983). The global minimizer is the θ with
// (A + λI)θ = b for a multiplier λ ≥ 0 such that A + λI is positive
// semidefinite and λ(R − ‖θ‖) = 0. The solve first tries λ = 0 (the interior
// solution, when A is positive definite and A⁻¹b lies in the ball), then runs
// Newton's method on the secular equation 1/‖θ(λ)‖ = 1/R inside a Gershgorin
// bracket on λ, one Cholesky factorization of A + λI per step. A step that
// leaves the bracket is replaced by a safeguarded one, and a failed
// factorization raises the bracket's lower end by the negative curvature it
// exposes. In the hard case, where b is
// (nearly) orthogonal to the bottom eigenvector of an indefinite A and no
// positive definite shift reaches the boundary, the solution is completed by
// a step to the boundary along an approximate bottom eigenvector found by
// inverse iteration.
//
// The regression mechanisms read their released moments Q̃ and q̃ through
// this solve, with A = Q̃ + rI for the ridge r of Ridge, when the solve
// domain is an L2 ball: both are post-processing of the private release, so
// they leave the privacy guarantee unchanged.
//
// The zero value is ready to use; buffers are allocated by the first Solve of
// each dimension. A TrustRegion is not safe for concurrent use.
type TrustRegion struct {
	chol vec.CholeskyWorkspace
	// theta is the solution, w the Newton step's L⁻¹θ, z the approximate
	// bottom eigenvector and az the product (A + λI)z.
	theta, w, z, az vec.Vector
	// zSet reports whether z holds an iterate of this solve.
	zSet bool
	// factorizations counts the Cholesky factorizations of the last solve.
	factorizations int
}

const (
	// boundaryTol is the relative distance |‖θ(λ)‖ − R| ≤ boundaryTol·R at
	// which the Newton iteration stops: its last step is then taken to
	// first order without a further factorization, which leaves a residual
	// of second order, about boundaryTol² relative.
	boundaryTol = 1e-6
	// residualTol bounds, relative to ‖b‖ + λR, the residual a hard-case
	// step may leave in (A + λI)θ = b.
	residualTol = 1e-10
	// bracketTol is the relative width at which the bracket on λ has
	// collapsed to working precision.
	bracketTol = 1e-14
	// maxFactorizations caps the factorizations of one solve. Safeguarded
	// steps shrink the bracket geometrically, so the cap is reached only
	// when rounding stalls it.
	maxFactorizations = 100
)

// Bytes is the memory held by the workspace's buffers.
func (tr *TrustRegion) Bytes() int {
	return tr.chol.Bytes() + 8*(len(tr.theta)+len(tr.w)+len(tr.z)+len(tr.az))
}

// Factorizations returns the number of Cholesky factorizations the last
// Solve ran, failed ones included.
func (tr *TrustRegion) Factorizations() int { return tr.factorizations }

// Solve returns the minimizer θ of θᵀAθ − 2bᵀθ over the ball ‖θ‖ ≤ radius
// and its multiplier λ. a must be square and symmetric (both triangles are
// read) and radius positive. The returned vector is workspace, valid until
// the next Solve. With b = 0 and A positive semidefinite, the origin is
// returned.
func (tr *TrustRegion) Solve(a *vec.Matrix, b vec.Vector, radius float64) (vec.Vector, float64) {
	n := len(b)
	if len(tr.theta) != n {
		tr.theta, tr.w, tr.z, tr.az = vec.NewVector(n), vec.NewVector(n), vec.NewVector(n), vec.NewVector(n)
	}
	tr.factorizations, tr.zSet = 0, false
	lo, hi := lambdaBracket(a, vec.Norm2(b), radius)
	// λ = 0 is tried first whenever the bracket admits an interior solution.
	lam := 0.0
	if lo > 0 {
		lam = safeguard(lo, hi)
	}
	for tr.factorizations < maxFactorizations {
		if !tr.factor(a, lam) {
			// A + λI is not positive definite: its smallest eigenvalue is
			// at most the Rayleigh quotient ρ ≤ 0 at the factorization's
			// breakdown, so λ* ≥ −λ₁(A) ≥ λ − ρ.
			lo = math.Max(lo, lam)
			if rho := tr.chol.NegativeCurvature(); rho < 0 {
				lo = math.Max(lo, lam-rho)
			}
		} else {
			tr.chol.Solve(tr.theta, b)
			nt2 := vec.Dot(tr.theta, tr.theta)
			nt := math.Sqrt(nt2)
			if lam == 0 && nt <= radius {
				return tr.theta, 0
			}
			// Newton on φ(λ) = 1/‖θ(λ)‖ − 1/R, φ′(λ) = ‖L⁻¹θ‖²/‖θ‖³.
			tr.chol.SolveLower(tr.w, tr.theta)
			step := nt2 / vec.Dot(tr.w, tr.w) * (nt - radius) / radius
			if math.Abs(nt-radius) <= boundaryTol*radius && lam+step >= lo {
				// θ(λ + Δ) = θ − Δ·(A + λI)⁻¹θ + O(Δ²), and (A + λI)⁻¹θ = L⁻ᵀw.
				tr.chol.SolveUpper(tr.w, tr.w)
				vec.Axpy(tr.theta, -step, tr.w)
				tr.theta.Scale(radius / vec.Norm2(tr.theta))
				return tr.theta, lam + step
			}
			// ‖θ(λ)‖ decreases in λ on the positive definite range.
			if nt < radius {
				hi = math.Min(hi, lam)
			} else {
				lo = math.Max(lo, lam)
			}
			if next := lam + step; next > lo && next < hi {
				lam = next
				continue
			}
			// From inside the ball, a Newton step out of the bracket is the
			// mark of the hard case.
			if nt < radius && tr.hardStep(a, b, lam, nt, radius, false) {
				return tr.theta, lam
			}
		}
		if hi-lo <= bracketTol*hi {
			break
		}
		lam = safeguard(lo, hi)
	}
	return tr.finish(a, b, hi, radius)
}

// safeguard is the trial multiplier inside the bracket (lo, hi) when Newton's
// step is unavailable or leaves it: the geometric mean, kept at least a
// thousandth of the width above lo (Moré and Sorensen, §4).
func safeguard(lo, hi float64) float64 {
	return math.Max(math.Sqrt(lo*hi), lo+1e-3*(hi-lo))
}

// finish returns the solution at λ = hi, the bracket's upper end, once the
// bracket has collapsed: there λ* = hi to working precision, and a solution
// inside the ball is completed to the boundary along the bottom eigenvector.
// When A + hi·I does not factor, hi is raised by a few relative steps of
// rounding size; when hi = 0 does not factor, A is positive semidefinite and
// singular, so b = 0 (hi ≥ ‖b‖/R) and the origin is a minimizer.
func (tr *TrustRegion) finish(a *vec.Matrix, b vec.Vector, hi, radius float64) (vec.Vector, float64) {
	for bump := 1e-14; !tr.factor(a, hi); bump *= 16 {
		if hi == 0 || bump > 1e-6 {
			tr.theta.Zero()
			return tr.theta, hi
		}
		hi *= 1 + bump
	}
	tr.chol.Solve(tr.theta, b)
	nt := vec.Norm2(tr.theta)
	switch {
	case nt > radius:
		tr.theta.Scale(radius / nt)
	case nt < radius && hi > 0:
		tr.hardStep(a, b, hi, nt, radius, true)
	}
	return tr.theta, hi
}

// factor factors A + λI into the workspace and counts the attempt.
func (tr *TrustRegion) factor(a *vec.Matrix, lam float64) bool {
	tr.factorizations++
	return tr.chol.Factor(a, lam) == nil
}

// hardStep considers completing θ = θ(λ), which lies inside the ball at a
// positive definite shift λ > 0, to the boundary along z, an approximate
// bottom eigenvector of A + λI refined by two steps of inverse iteration
// with the current factor. The step θ + τz with ‖θ + τz‖ = R takes the root
// τ of smaller magnitude, which raises the objective least (Moré and
// Sorensen, Lemma 3.4), and leaves the residual τ(A + λI)z in the
// stationarity condition (A + λI)θ = b. The step is taken, and true
// returned, when that residual is at most residualTol of ‖b‖ + λR — in the hard
// case, once λ is close enough to −λ₁(A) — or always when force is set.
func (tr *TrustRegion) hardStep(a *vec.Matrix, b vec.Vector, lam, nt, radius float64, force bool) bool {
	z := tr.z
	if !tr.zSet {
		z.Fill(1)
		tr.zSet = true
	}
	for k := 0; k < 2; k++ {
		tr.chol.Solve(z, z)
		z.Scale(1 / vec.Norm2(z))
	}
	p := vec.Dot(tr.theta, z)
	gap := (radius - nt) * (radius + nt)
	tau := gap / (p + math.Copysign(math.Sqrt(p*p+gap), p))
	if !force {
		a.MulVecTo(tr.az, z)
		vec.Axpy(tr.az, lam, z)
		if math.Abs(tau)*vec.Norm2(tr.az) > residualTol*(vec.Norm2(b)+lam*radius) {
			return false
		}
	}
	vec.Axpy(tr.theta, tau, z)
	return true
}

// lambdaBracket returns bounds lo ≤ λ* ≤ hi on the multiplier of the
// trust-region problem with ‖b‖ = bn, from the Gershgorin and Frobenius
// bounds on the extreme eigenvalues of A (Conn, Gould and Toint, Trust-Region
// Methods, §7.3.8): λ* ≥ −λ₁(A) ≥ −min_i a_ii, and at a boundary solution
// ‖b‖/R − λ_max(A) ≤ λ* ≤ ‖b‖/R − λ₁(A).
func lambdaBracket(a *vec.Matrix, bn, radius float64) (lo, hi float64) {
	g := gershgorin(a)
	ratio := bn / radius
	lo = math.Max(0, math.Max(-g.minDiag, ratio-math.Min(g.up, g.frob)))
	hi = math.Max(0, ratio+math.Min(g.down, g.frob))
	return lo, hi
}

// spectrumBounds holds bounds on the extreme eigenvalues of a symmetric
// matrix A: λ₁(A) ≤ minDiag, λ_max(A) ≤ up, −λ₁(A) ≤ down, and both
// |λ₁(A)|, |λ_max(A)| ≤ frob.
type spectrumBounds struct {
	minDiag, up, down, frob float64
}

// gershgorin returns the Gershgorin and Frobenius bounds on the spectrum of
// the square matrix a.
func gershgorin(a *vec.Matrix) spectrumBounds {
	n := a.Rows()
	data := a.Data()
	g := spectrumBounds{minDiag: math.Inf(1), up: math.Inf(-1), down: math.Inf(-1)}
	for i := 0; i < n; i++ {
		row := data[i*n : (i+1)*n]
		var off float64
		for j, v := range row {
			if j != i {
				off += math.Abs(v)
			}
			g.frob += v * v
		}
		aii := row[i]
		g.minDiag = math.Min(g.minDiag, aii)
		g.up = math.Max(g.up, aii+off)     // λ_max(A) ≤ max_i a_ii + Σ_{j≠i} |a_ij|
		g.down = math.Max(g.down, off-aii) // −λ₁(A) ≤ max_i −a_ii + Σ_{j≠i} |a_ij|
	}
	g.frob = math.Sqrt(g.frob)
	return g
}

// ridgeTol is the precision, relative to the floor, to which Ridge resolves
// the smallest eigenvalue.
const ridgeTol = 1.0 / 16

// Ridge returns the ridge r ≥ 0 that lifts the smallest eigenvalue of the
// symmetric matrix a to at least floor > 0: r = 0 when λ₁(A) ≥ floor, and
// otherwise r = floor − l for a certified lower bound l ≤ λ₁(A) within
// floor/16 of it, so that A + rI ⪰ floor·I and r exceeds the smallest such
// ridge by at most floor/16. It bisects on λ₁ from the Gershgorin bounds with
// Cholesky factorizations of A − μI in the workspace, each failed one also
// lowering the upper end to μ plus the negative curvature it exposes.
func (tr *TrustRegion) Ridge(a *vec.Matrix, floor float64) float64 {
	if tr.chol.Factor(a, -floor) == nil {
		return 0
	}
	g := gershgorin(a)
	lo, hi := -g.down, math.Min(floor, g.minDiag)
	if rho := tr.chol.NegativeCurvature(); rho < 0 {
		hi = math.Min(hi, floor+rho)
	}
	for k := 0; k < maxFactorizations && hi-lo > ridgeTol*floor; k++ {
		mu := lo + (hi-lo)/2
		if tr.chol.Factor(a, -mu) == nil {
			lo = mu
			continue
		}
		hi = mu
		if rho := tr.chol.NegativeCurvature(); rho < 0 {
			hi = mu + rho
		}
	}
	return floor - lo
}
