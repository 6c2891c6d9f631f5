package vec

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by a Cholesky factorization when the
// input matrix is not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("vec: matrix is not positive definite")

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
