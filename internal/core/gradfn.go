package core

import (
	"math"

	"privreg/internal/tree"
	"privreg/internal/vec"
)

// PrivateGradient is a private gradient function in the sense of Definition 5,
// specialized to least-squares losses whose gradient has the linear form
//
//	∇L(θ; Γ_t) = 2 (Σ x_i x_iᵀ · θ - Σ x_i y_i) = 2 (Q θ - q).
//
// Q and q are privately maintained running sums (Tree Mechanism outputs), so
// evaluating the function at any number of points θ is post-processing and
// consumes no additional privacy budget — the property that lets the noisy
// projected gradient optimizer iterate freely (Section 4).
type PrivateGradient struct {
	// Q is the private estimate of Σ x_i x_iᵀ, unpacked from the released
	// svec sum (symmetric by construction).
	Q *vec.Matrix
	// Qv is the private estimate of Σ x_i y_i.
	Qv vec.Vector
}

// Dim returns the dimension the gradient function operates in.
func (g *PrivateGradient) Dim() int { return len(g.Qv) }

// Eval returns 2(Qθ - q) as a new vector.
func (g *PrivateGradient) Eval(theta vec.Vector) vec.Vector {
	out := g.Q.MulVec(theta)
	out.SubInPlace(g.Qv)
	out.Scale(2)
	return out
}

// bytes is the memory held by g's buffers (0 before the first read).
func (g *PrivateGradient) bytes() int {
	if g.Q == nil {
		return 0
	}
	return 8 * (len(g.Q.Data()) + len(g.Qv))
}

// Func adapts the private gradient to the optimizer's GradientFunc signature.
func (g *PrivateGradient) Func() func(vec.Vector) vec.Vector {
	return g.Eval
}

// Risk returns the (private estimate of the) empirical squared-loss risk of θ
// up to the θ-independent constant Σ y_i²:  θᵀQθ - 2 qᵀθ. It is exposed for
// diagnostics; excess-risk evaluation in the experiments always uses the exact
// (non-private) risk oracle instead.
func (g *PrivateGradient) Risk(theta vec.Vector) float64 {
	q := g.Q.MulVec(theta)
	return vec.Dot(theta, q) - 2*vec.Dot(g.Qv, theta)
}

// smoothStepSize picks the projected-gradient step size for minimizing the
// (private) quadratic ½θᵀ(2Q)θ - 2qᵀθ. The loss is 2‖Q‖-smooth, so a step of
// 1/(2‖Q‖) is admissible and converges much faster than the conservative
// worst-case step ‖C‖/(√r(α+L)) of Proposition B.1 whenever the accumulated
// signal dominates; the larger of the two is returned (never exceeding the
// smoothness limit when Q carries signal). This choice is pure post-processing
// of private state, so it has no effect on the privacy guarantee; it only
// narrows the gap between the mechanism's output and the minimizer of its
// privatized objective.
func smoothStepSize(pg *PrivateGradient, lip, gradErr, diameter float64, iters int) float64 {
	spec := pg.Q.PowerIterationSpectralNorm(30, nil)
	if spec <= 0 {
		return 0 // fall back to the optimizer's default step
	}
	smooth := 1 / (2.1 * spec)
	def := diameter
	if denom := math.Sqrt(float64(iters)) * (gradErr + lip); denom > 0 {
		def = diameter / denom
	}
	if smooth > def {
		return smooth
	}
	return def
}

// gradientErrorScale returns the α' of Algorithm 2 for a private gradient
// maintained by the first-moment mechanism sumXY and the second-moment
// mechanism sumXXT over a dim-dimensional space: a high-probability bound on
// ‖g_t(θ) - ∇L(θ; Γ_t)‖ over a domain of the given diameter (Lemma 4.1 with
// explicit constants), valid for every timestep up to the horizon. The
// first-moment error is the Gaussian norm bound σ_r·(√d + √(2 ln(1/β))) of a
// release with per-coordinate noise σ_r. The second-moment error enters
// through the spectral norm of the d×d noise matrix, which for Gaussian
// entries of standard deviation σ_r is ≈ 2σ_r√d — a factor √d smaller than
// its Frobenius norm. Both σ_r are sized from the horizon, so a Hybrid
// substrate gets the bound of its noisiest reachable epoch, not of its first.
func gradientErrorScale(sumXY, sumXXT tree.Mechanism, horizon, dim int, diameter, beta float64) float64 {
	rd := math.Sqrt(float64(dim))
	sumErr := sumXY.ReleaseSigma(horizon) * (rd + math.Sqrt(2*math.Log(1/beta)))
	matErr := 2 * sumXXT.ReleaseSigma(horizon) * rd
	return 2 * (diameter*matErr + sumErr)
}

// readGradient releases the private gradient of sumXY and sumXXT over a
// dim-dimensional space into pg. pg's buffers are allocated at the first read
// only: later reads release the svec sum straight into the d×d matrix's
// storage and unpack it in place.
func readGradient(pg *PrivateGradient, sumXY, sumXXT tree.Mechanism, dim int) {
	if pg.Q == nil {
		pg.Q = vec.NewMatrix(dim, dim)
		pg.Qv = vec.NewVector(dim)
	}
	sumXY.SumInto(pg.Qv)
	sumXXT.SumInto(pg.Q.Data()[:svecLen(dim)])
	unpackSvec(pg.Q)
}

// svecLen is the length of svec of a d×d symmetric matrix: its packed upper
// triangle, d(d+1)/2 entries.
func svecLen(d int) int { return d * (d + 1) / 2 }

// svecOuter writes svec(x xᵀ) into dst (length svecLen(len(x))): the upper
// triangle of x xᵀ packed row-major as in vec.SymMatrix, with diagonal entries
// x_i² and off-diagonal entries √2·x_i x_j. The embedding is an isometry,
// ‖svec(A)‖₂ = ‖A‖_F, so the packed second-moment stream (Step 4 of
// Algorithm 2) keeps the L2 sensitivity of the dense d² stream, and with it
// the Tree Mechanism's noise scale, while every tree level stores and folds
// d(d+1)/2 floats instead of d².
func svecOuter(dst []float64, x vec.Vector) {
	d := len(x)
	off := 0
	for i, xi := range x {
		row := dst[off : off+d-i]
		off += d - i
		if xi == 0 {
			for k := range row {
				row[k] = 0
			}
			continue
		}
		row[0] = xi * xi
		s := math.Sqrt2 * xi
		for k, xj := range x[i+1:] {
			row[k+1] = s * xj
		}
	}
}

// unpackSvec turns q, whose first svecLen(d) entries hold the svec of a
// symmetric d×d matrix, into that matrix in place: off-diagonal entries are
// divided by √2 and mirrored. Released off-diagonal noise then has variance
// σ²/2 and diagonal noise σ², the distribution of a dense d² release
// symmetrized as (A + Aᵀ)/2, so the read is the same post-processing of an
// equally private release.
//
// In-place is safe: packed row i starts at i·d - i(i-1)/2 ≤ i·d, so rows are
// unpacked last to first and, within a row, right to left; every write lands
// at or after the packed entry it reads, and beyond every packed entry still
// to be read.
func unpackSvec(q *vec.Matrix) {
	d := q.Rows()
	data := q.Data()
	for i := d - 1; i >= 0; i-- {
		off := i*d - i*(i-1)/2
		for j := d - 1; j > i; j-- {
			v := data[off+j-i] / math.Sqrt2
			data[i*d+j] = v
			data[j*d+i] = v
		}
		data[i*d+i] = data[off]
	}
}
