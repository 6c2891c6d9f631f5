package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gram returns the product a·bᵀ of two matrices with equal column counts.
func gram(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows(), b.Rows())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Rows(); j++ {
			var s float64
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// addDiagonal returns a copy of the square matrix a with r added to its
// diagonal.
func addDiagonal(a *Matrix, r float64) *Matrix {
	out := NewMatrix(a.Rows(), a.Cols())
	copy(out.Data(), a.Data())
	for i := 0; i < a.Rows(); i++ {
		out.Set(i, i, out.At(i, i)+r)
	}
	return out
}

func spdMatrix(r *rand.Rand, d int) *Matrix {
	// A = B Bᵀ + I is symmetric positive definite.
	b := NewMatrix(d, d)
	for i := range b.Data() {
		b.Data()[i] = r.NormFloat64()
	}
	return addDiagonal(gram(b, b), 1)
}

func TestCholeskyReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := spdMatrix(r, 5)
	var ws CholeskyWorkspace
	if err := ws.Factor(a, 0); err != nil {
		t.Fatal(err)
	}
	recon := gram(ws.l, ws.l)
	if !Equal(Vector(recon.Data()), Vector(a.Data()), 1e-8) {
		t.Fatalf("L Lᵀ != A\nA=%v\nrecon=%v", a, recon)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrixFromRows([]Vector{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	var ws CholeskyWorkspace
	if err := ws.Factor(a, 0); err == nil {
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
		got, err := SolveRidge(a, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, want, 1e-6) {
			t.Fatalf("SolveRidge: got %v want %v", got, want)
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
	check := addDiagonal(a, lambda).MulVec(got)
	if !Equal(check, b, 1e-8) {
		t.Fatalf("(A+λI)x != b: %v vs %v", check, b)
	}
	if _, err := SolveRidge(a, b, -1); err == nil {
		t.Fatal("negative ridge should error")
	}
}

// Property: SolveRidge with no ridge solves systems built from random SPD
// matrices to high relative accuracy.
func TestSolveSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(6)
		a := spdMatrix(r, d)
		want := randomVector(r, d)
		b := a.MulVec(want)
		got, err := SolveRidge(a, b, 0)
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
	var ws CholeskyWorkspace
	if err := ws.Factor(a, 0); err == nil {
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
