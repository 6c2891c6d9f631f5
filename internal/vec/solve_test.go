package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func spdMatrix(r *rand.Rand, d int) *Matrix {
	// A = B Bᵀ + I is symmetric positive definite.
	b := NewMatrix(d, d)
	for i := range b.Data() {
		b.Data()[i] = r.NormFloat64()
	}
	a := b.Mul(b.Transpose())
	for i := 0; i < d; i++ {
		a.Incr(i, i, 1)
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := spdMatrix(r, 5)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	recon := l.Mul(l.Transpose())
	if !recon.Equal(a, 1e-8) {
		t.Fatalf("L Lᵀ != A\nA=%v\nrecon=%v", a, recon)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrixFromRows([]Vector{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

func TestSolveSPD(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		d := 1 + r.Intn(8)
		a := spdMatrix(r, d)
		want := randomVector(r, d)
		b := a.MulVec(want)
		got, err := SolveSPD(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, want, 1e-6) {
			t.Fatalf("SolveSPD: got %v want %v", got, want)
		}
	}
}

func TestSolveRidgeMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := spdMatrix(r, 4)
	b := randomVector(r, 4)
	lambda := 0.7
	got, err := SolveRidge(a, b, lambda)
	if err != nil {
		t.Fatal(err)
	}
	reg := a.Clone()
	for i := 0; i < 4; i++ {
		reg.Incr(i, i, lambda)
	}
	check := reg.MulVec(got)
	if !Equal(check, b, 1e-8) {
		t.Fatalf("(A+λI)x != b: %v vs %v", check, b)
	}
	if _, err := SolveRidge(a, b, -1); err == nil {
		t.Fatal("negative ridge should error")
	}
}

func TestQRLeastSquaresExactFit(t *testing.T) {
	// Overdetermined consistent system: the residual must be ~0 and the
	// solution must match the generator.
	r := rand.New(rand.NewSource(6))
	n, d := 12, 4
	a := NewMatrix(n, d)
	for i := range a.Data() {
		a.Data()[i] = r.NormFloat64()
	}
	want := randomVector(r, d)
	b := a.MulVec(want)
	qr, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if !qr.IsFullRank() {
		t.Fatal("random matrix reported rank deficient")
	}
	got, err := qr.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, want, 1e-8) {
		t.Fatalf("QR solve: got %v want %v", got, want)
	}
}

func TestLeastSquaresNormalEquationsOptimality(t *testing.T) {
	// For a noisy overdetermined system, the residual of the LS solution must be
	// orthogonal to the column space (normal equations Aᵀ(Ax - b) = 0).
	r := rand.New(rand.NewSource(7))
	n, d := 20, 3
	a := NewMatrix(n, d)
	for i := range a.Data() {
		a.Data()[i] = r.NormFloat64()
	}
	b := randomVector(r, n)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	resid := a.MulVec(x)
	resid.SubInPlace(b)
	normalEq := a.MulVecT(resid)
	if Norm2(normalEq) > 1e-6 {
		t.Fatalf("normal equations violated: |Aᵀr| = %v", Norm2(normalEq))
	}
}

func TestLeastSquaresRankDeficientFallback(t *testing.T) {
	// Duplicate columns: rank deficient; the fallback must still return a finite
	// solution with a small residual relative to the best achievable.
	a := NewMatrixFromRows([]Vector{{1, 1}, {2, 2}, {3, 3}})
	b := Vector{2, 4, 6}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !IsFinite(x) {
		t.Fatalf("non-finite solution %v", x)
	}
	resid := a.MulVec(x)
	resid.SubInPlace(b)
	if Norm2(resid) > 1e-4 {
		t.Fatalf("residual too large: %v", Norm2(resid))
	}
}

func TestQRRejectsWideMatrix(t *testing.T) {
	a := NewMatrix(2, 5)
	if _, err := NewQR(a); err == nil {
		t.Fatal("expected error for wide matrix")
	}
}

// Property: SolveSPD solves systems built from random SPD matrices to high
// relative accuracy.
func TestSolveSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(6)
		a := spdMatrix(r, d)
		want := randomVector(r, d)
		b := a.MulVec(want)
		got, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		return Dist2(got, want) <= 1e-5*(1+Norm2(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyNaNRejected(t *testing.T) {
	a := NewMatrixFromRows([]Vector{{math.NaN(), 0}, {0, 1}})
	if _, err := Cholesky(a); err == nil {
		t.Fatal("NaN matrix should be rejected")
	}
}

// TestCholeskyWorkspaceShiftedSolve checks Factor with a shift against
// SolveRidge's system and the split substitutions against the full solve.
func TestCholeskyWorkspaceShiftedSolve(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := spdMatrix(r, 6)
	b := randomVector(r, 6)
	var ws CholeskyWorkspace
	if err := ws.Factor(a, 0.5); err != nil {
		t.Fatal(err)
	}
	x := NewVector(6)
	ws.Solve(x, b)
	want, err := SolveRidge(a, b, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(x, want, 0) {
		t.Fatalf("shifted solve %v, SolveRidge %v", x, want)
	}
	y := b.Clone()
	ws.SolveLower(y, y)
	ws.SolveUpper(y, y)
	if !Equal(y, x, 0) {
		t.Fatalf("in-place substitutions %v, solve %v", y, x)
	}
}

// TestNegativeCurvatureBoundsSmallestEigenvalue checks the breakdown
// certificate of a failed factorization: on symmetric matrices with known
// spectrum, shifted below the smallest eigenvalue, the returned Rayleigh
// quotient lies between the shifted smallest eigenvalue and zero.
func TestNegativeCurvatureBoundsSmallestEigenvalue(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(10)
		// A = H·diag(eig)·H for a Householder reflection H = I − 2vvᵀ.
		v := randomVector(r, n)
		v.Scale(1 / Norm2(v))
		eig := randomVector(r, n)
		minEig := eig[0]
		for _, e := range eig {
			minEig = math.Min(minEig, e)
		}
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					hik, hjk := -2*v[i]*v[k], -2*v[j]*v[k]
					if i == k {
						hik++
					}
					if j == k {
						hjk++
					}
					s += hik * eig[k] * hjk
				}
				a.Set(i, j, s)
			}
		}
		shift := -minEig - 0.1 - r.Float64()
		var ws CholeskyWorkspace
		if err := ws.Factor(a, shift); err == nil {
			t.Fatalf("trial %d: factored a matrix with smallest eigenvalue %g", trial, minEig+shift)
		}
		rho := ws.NegativeCurvature()
		if rho > 0 || rho < minEig+shift-1e-9 {
			t.Fatalf("trial %d: curvature %g outside [%g, 0]", trial, rho, minEig+shift)
		}
	}
}
