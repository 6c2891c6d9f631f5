package vec

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("vec: matrix is not positive definite")

// ErrSingular is returned by solvers when the system is singular or too
// ill-conditioned to solve reliably.
var ErrSingular = errors.New("vec: singular or ill-conditioned system")

// Cholesky computes the lower-triangular Cholesky factor L of a symmetric
// positive definite matrix A, so that A = L Lᵀ. Only the lower triangle of A is
// read. It returns ErrNotPositiveDefinite if a non-positive pivot is found.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows() != a.Cols() {
		return nil, errors.New("vec: Cholesky requires a square matrix")
	}
	var ws CholeskyWorkspace
	if err := ws.Factor(a, 0); err != nil {
		return nil, err
	}
	return ws.l, nil
}

// CholeskyWorkspace holds the Cholesky factor L of a shifted symmetric matrix
// A + shift·I and the substitution intermediate, so repeated factorizations
// and solves of same-shaped systems — the ridge solves of the exact oracles,
// the several shifts of one trust-region solve — allocate nothing after the
// first. The zero value is ready to use; a workspace is not safe for
// concurrent use.
type CholeskyWorkspace struct {
	l *Matrix
	y Vector
	// pivot and deficit record where the last failed Factor stopped: the
	// index and the value of its first non-positive pivot.
	pivot   int
	deficit float64
}

// Bytes is the memory held by the workspace's buffers.
func (ws *CholeskyWorkspace) Bytes() int {
	if ws.l == nil {
		return 0
	}
	return 8 * (len(ws.l.data) + len(ws.y))
}

// Factor computes the Cholesky factor of a + shift·I into the workspace,
// reading only the lower triangle of the square matrix a. It returns
// ErrNotPositiveDefinite, leaving the factor unusable, when a pivot is not
// positive. The factor is valid for the solves until the next Factor.
func (ws *CholeskyWorkspace) Factor(a *Matrix, shift float64) error {
	n := a.Rows()
	if ws.l == nil || ws.l.rows != n {
		ws.l = NewMatrix(n, n)
		ws.y = NewVector(n)
	}
	ad, ld := a.data, ws.l.data
	for j := 0; j < n; j++ {
		lj := ld[j*n : j*n+j]
		var sum float64
		for _, v := range lj {
			sum += v * v
		}
		diag := ad[j*n+j] + shift - sum
		if diag <= 0 || math.IsNaN(diag) {
			ws.pivot, ws.deficit = j, diag
			return ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(diag)
		ld[j*n+j] = ljj
		// Column j below the pivot, four rows at a time: each row's sum
		// still accumulates in index order, as a row at a time would, but
		// the four independent sums overlap in the pipeline.
		i := j + 1
		for ; i+4 <= n; i += 4 {
			l0 := ld[i*n : i*n+j]
			l1, l2, l3 := ld[(i+1)*n:][:len(l0)], ld[(i+2)*n:][:len(l0)], ld[(i+3)*n:][:len(l0)]
			lk := lj[:len(l0)]
			var s0, s1, s2, s3 float64
			for k, v := range l0 {
				s0 += v * lk[k]
				s1 += l1[k] * lk[k]
				s2 += l2[k] * lk[k]
				s3 += l3[k] * lk[k]
			}
			ld[i*n+j] = (ad[i*n+j] - s0) / ljj
			ld[(i+1)*n+j] = (ad[(i+1)*n+j] - s1) / ljj
			ld[(i+2)*n+j] = (ad[(i+2)*n+j] - s2) / ljj
			ld[(i+3)*n+j] = (ad[(i+3)*n+j] - s3) / ljj
		}
		for ; i < n; i++ {
			li := ld[i*n : i*n+j]
			lk := lj[:len(li)]
			var s float64
			for k, v := range li {
				s += v * lk[k]
			}
			ld[i*n+j] = (ad[i*n+j] - s) / ljj
		}
	}
	return nil
}

// NegativeCurvature returns, after a Factor of A + shift·I that failed at
// pivot j with the non-positive value δ, the Rayleigh quotient δ/‖u‖² ≤ 0 of
// A + shift·I at the vector u with u_j = 1, zeros beyond j, and leading part
// −L⁻ᵀl for the computed part l of row j of the factor, so that
// uᵀ(A + shift·I)u = δ (Moré and Sorensen, §4). The smallest eigenvalue of
// A + shift·I is at most the returned value, which is NaN when the pivot was.
func (ws *CholeskyWorkspace) NegativeCurvature() float64 {
	n, j := ws.l.rows, ws.pivot
	ld := ws.l.data
	u := ws.y[:j]
	norm := 1.0
	for i := j - 1; i >= 0; i-- {
		s := -ld[j*n+i]
		for k := i + 1; k < j; k++ {
			s -= ld[k*n+i] * u[k]
		}
		u[i] = s / ld[i*n+i]
		norm += u[i] * u[i]
	}
	return ws.deficit / norm
}

// SolveLower writes into x the solution of L x = b (forward substitution).
// x may alias b.
func (ws *CholeskyWorkspace) SolveLower(x, b Vector) {
	n := len(b)
	ld := ws.l.data
	for i := 0; i < n; i++ {
		s := b[i]
		for k, v := range ld[i*n : i*n+i] {
			s -= v * x[k]
		}
		x[i] = s / ld[i*n+i]
	}
}

// SolveUpper writes into x the solution of Lᵀ x = y (backward
// substitution). x may alias y.
func (ws *CholeskyWorkspace) SolveUpper(x, y Vector) {
	n := len(y)
	ld := ws.l.data
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= ld[k*n+i] * x[k]
		}
		x[i] = s / ld[i*n+i]
	}
}

// Solve writes into x the solution of L Lᵀ x = b, the factored system. x
// may alias b.
func (ws *CholeskyWorkspace) Solve(x, b Vector) {
	ws.SolveLower(ws.y, b)
	ws.SolveUpper(x, ws.y)
}

// SolveSPD solves A x = b for a symmetric positive definite A via Cholesky
// factorization. A ridge term may be added by the caller beforehand to make a
// positive semi-definite system strictly positive definite.
func SolveSPD(a *Matrix, b Vector) (Vector, error) {
	return SolveRidge(a, b, 0)
}

// SolveRidge solves (A + lambda I) x = b. It is the workhorse for solving the
// regularized normal equations of least squares. lambda must be non-negative.
func SolveRidge(a *Matrix, b Vector, lambda float64) (Vector, error) {
	return SolveRidgeWith(nil, a, b, lambda)
}

// SolveRidgeWith is SolveRidge with a reusable factorization workspace, so
// repeated solves of same-shaped systems (the incremental least-squares
// estimators re-solve their d×d normal equations on every new estimate)
// allocate only the returned solution vector; ws may be nil (a transient
// workspace is used).
func SolveRidgeWith(ws *CholeskyWorkspace, a *Matrix, b Vector, lambda float64) (Vector, error) {
	if lambda < 0 {
		return nil, errors.New("vec: negative ridge parameter")
	}
	n := a.Rows()
	if a.Cols() != n {
		return nil, errors.New("vec: SolveRidge requires a square matrix")
	}
	if len(b) != n {
		return nil, errors.New("vec: SolveRidge dimension mismatch")
	}
	if ws == nil {
		ws = &CholeskyWorkspace{}
	}
	if err := ws.Factor(a, lambda); err != nil {
		return nil, err
	}
	x := NewVector(n)
	ws.Solve(x, b)
	return x, nil
}

// QR holds a thin Householder QR factorization of an n x d matrix with n >= d.
type QR struct {
	qr    *Matrix   // packed Householder vectors + R
	rdiag []float64 // diagonal of R
}

// NewQR computes the Householder QR factorization of a. The input is not
// modified. It returns ErrSingular if a has fewer rows than columns.
func NewQR(a *Matrix) (*QR, error) {
	n, d := a.Rows(), a.Cols()
	if n < d {
		return nil, ErrSingular
	}
	qr := a.Clone()
	rdiag := make([]float64, d)
	for k := 0; k < d; k++ {
		// Compute the norm of column k below the diagonal.
		var nrm float64
		for i := k; i < n; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm != 0 {
			if qr.At(k, k) < 0 {
				nrm = -nrm
			}
			for i := k; i < n; i++ {
				qr.Set(i, k, qr.At(i, k)/nrm)
			}
			qr.Incr(k, k, 1)
			// Apply the transformation to the remaining columns.
			for j := k + 1; j < d; j++ {
				var s float64
				for i := k; i < n; i++ {
					s += qr.At(i, k) * qr.At(i, j)
				}
				s = -s / qr.At(k, k)
				for i := k; i < n; i++ {
					qr.Incr(i, j, s*qr.At(i, k))
				}
			}
		}
		rdiag[k] = -nrm
	}
	return &QR{qr: qr, rdiag: rdiag}, nil
}

// IsFullRank reports whether the factored matrix has full column rank
// (all diagonal entries of R are nonzero beyond a small tolerance).
func (f *QR) IsFullRank() bool {
	for _, r := range f.rdiag {
		if math.Abs(r) < 1e-12 {
			return false
		}
	}
	return true
}

// Solve returns the least-squares solution x minimizing ‖A x - b‖₂ using the
// stored factorization. It returns ErrSingular when A is rank deficient.
func (f *QR) Solve(b Vector) (Vector, error) {
	n, d := f.qr.Rows(), f.qr.Cols()
	if len(b) != n {
		return nil, errors.New("vec: QR.Solve dimension mismatch")
	}
	if !f.IsFullRank() {
		return nil, ErrSingular
	}
	y := b.Clone()
	// Apply the Householder reflections to b.
	for k := 0; k < d; k++ {
		var s float64
		for i := k; i < n; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < n; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back substitution on R.
	x := make(Vector, d)
	for k := d - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < d; j++ {
			s -= f.qr.At(k, j) * x[j]
		}
		x[k] = s / f.rdiag[k]
	}
	return x, nil
}

// LeastSquares returns argmin_x ‖A x - b‖₂ via QR factorization, falling back to
// a ridge-regularized normal-equation solve when A is rank deficient.
func LeastSquares(a *Matrix, b Vector) (Vector, error) {
	if a.Rows() >= a.Cols() {
		f, err := NewQR(a)
		if err == nil && f.IsFullRank() {
			return f.Solve(b)
		}
	}
	// Fall back to (AᵀA + eps I) x = Aᵀ b, which always has a solution and is a
	// good proxy for the minimum-norm least-squares solution.
	at := a.Transpose()
	ata := at.Mul(a)
	atb := at.MulVec(b)
	eps := 1e-10 * (1 + ata.Trace())
	return SolveRidge(ata, atb, eps)
}
