package erm

import (
	"math"
	"testing"

	"privreg/internal/randx"
	"privreg/internal/vec"
)

// Tests of TrustRegion.Solve through the optimality conditions of the
// trust-region problem min θᵀAθ − 2bᵀθ s.t. ‖θ‖ ≤ R: θ is a global minimizer
// if and only if ‖θ‖ ≤ R, (A + λI)θ = b, λ ≥ 0, A + λI is positive
// semidefinite and λ(R − ‖θ‖) = 0 (Moré and Sorensen, Lemma 2.1).

// checkKKT fails t unless (θ, λ) satisfies the optimality conditions to
// working accuracy: the residual and the complementarity gap are measured
// relative to the problem's scale, and A + λI must factor, except for the
// origin returned with λ = 0 (b = 0, A positive semidefinite).
func checkKKT(t testing.TB, a *vec.Matrix, b vec.Vector, radius float64, theta vec.Vector, lam float64) {
	t.Helper()
	nt := vec.Norm2(theta)
	if nt > radius*(1+1e-9) {
		t.Fatalf("‖θ‖ = %.17g exceeds the radius %.17g", nt, radius)
	}
	if !(lam >= 0) {
		t.Fatalf("multiplier λ = %g is negative", lam)
	}
	res := a.MulVec(theta)
	vec.Axpy(res, lam, theta)
	res.SubInPlace(b)
	scale := vec.Norm2(vec.Vector(a.Data()))*radius + vec.Norm2(b) + lam*radius
	if r := vec.Norm2(res); r > 1e-9*scale {
		t.Fatalf("‖(A+λI)θ − b‖ = %g, scale %g (λ = %g, ‖θ‖ = %g, R = %g)", r, scale, lam, nt, radius)
	}
	if gap := lam * (radius - nt); gap > 1e-8*lam*radius {
		t.Fatalf("complementarity λ(R − ‖θ‖) = %g (λ = %g, ‖θ‖ = %g, R = %g)", gap, lam, nt, radius)
	}
	if lam == 0 && nt == 0 {
		return
	}
	var ws vec.CholeskyWorkspace
	if err := ws.Factor(a, lam); err != nil {
		t.Fatalf("A + λI does not factor at λ = %g: %v", lam, err)
	}
}

// objective is θᵀAθ − 2bᵀθ.
func objective(a *vec.Matrix, b, theta vec.Vector) float64 {
	return vec.Dot(theta, a.MulVec(theta)) - 2*vec.Dot(b, theta)
}

// spectral returns H·diag(eig)·H for the Householder reflection H = I − 2vvᵀ
// of a unit vector v, a symmetric matrix with eigenvalues eig whose
// eigenvector for eig[i] is H e_i.
func spectral(eig, v vec.Vector) *vec.Matrix {
	n := len(eig)
	h := vec.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			e := -2 * v[i] * v[j]
			if i == j {
				e++
			}
			h.Set(i, j, e)
		}
	}
	// (H·diag(eig))·H, skipping the zero entries of the left factor.
	out := vec.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			a := h.At(i, k) * eig[k]
			if a == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Set(i, j, out.At(i, j)+a*h.At(k, j))
			}
		}
	}
	return out
}

// reflect returns H x for the reflection of spectral.
func reflect(x, v vec.Vector) vec.Vector {
	out := x.Clone()
	vec.Axpy(out, -2*vec.Dot(v, x), v)
	return out
}

func unit(src *randx.Source, n int) vec.Vector {
	v := vec.Vector(src.NormalVector(n, 1))
	v.Scale(1 / vec.Norm2(v))
	return v
}

func TestTrustRegionInterior(t *testing.T) {
	src := randx.NewSource(1)
	const n = 6
	v := unit(src, n)
	a := spectral(vec.Vector{1, 2, 3, 4, 5, 6}, v)
	b := vec.Vector(src.NormalVector(n, 0.1))
	var tr TrustRegion
	theta, lam := tr.Solve(a, b, 10)
	checkKKT(t, a, b, 10, theta, lam)
	if lam != 0 || tr.Factorizations() != 1 {
		t.Fatalf("interior solve: λ = %g after %d factorizations, want λ = 0 after 1", lam, tr.Factorizations())
	}
}

func TestTrustRegionBoundary(t *testing.T) {
	src := randx.NewSource(2)
	const n = 8
	a := spectral(vec.Vector{0.5, 1, 2, 3, 4, 5, 6, 7}, unit(src, n))
	b := vec.Vector(src.NormalVector(n, 10))
	var tr TrustRegion
	theta, lam := tr.Solve(a, b, 1)
	checkKKT(t, a, b, 1, theta, lam)
	if lam <= 0 || math.Abs(vec.Norm2(theta)-1) > 1e-9 {
		t.Fatalf("boundary solve: λ = %g, ‖θ‖ = %.17g", lam, vec.Norm2(theta))
	}
	if f := tr.Factorizations(); f > 10 {
		t.Fatalf("boundary solve took %d factorizations", f)
	}
}

func TestTrustRegionIndefinite(t *testing.T) {
	src := randx.NewSource(3)
	for trial := 0; trial < 20; trial++ {
		n := 2 + trial%10
		eig := vec.Vector(src.NormalVector(n, 2))
		a := spectral(eig, unit(src, n))
		b := vec.Vector(src.NormalVector(n, 0.5))
		var tr TrustRegion
		theta, lam := tr.Solve(a, b, 1.5)
		checkKKT(t, a, b, 1.5, theta, lam)
	}
}

// TestTrustRegionHardCase puts b orthogonal to the bottom eigenvector of an
// indefinite A, with ‖(A − λ₁I)⁺b‖ < R: no positive definite shift reaches
// the boundary, and the solution needs the step along the eigenvector.
func TestTrustRegionHardCase(t *testing.T) {
	src := randx.NewSource(4)
	eig := vec.Vector{-1, 2, 3, 4, 5}
	for _, rotate := range []bool{false, true} {
		v := vec.NewVector(len(eig))
		if rotate {
			v = unit(src, len(eig))
		}
		a := spectral(eig, v)
		b := reflect(vec.Vector{0, 1, 1, 1, 1}, v)
		var tr TrustRegion
		theta, lam := tr.Solve(a, b, 5)
		checkKKT(t, a, b, 5, theta, lam)
		if math.Abs(lam-1) > 1e-8 {
			t.Fatalf("rotate=%v: λ = %.17g, want −λ₁ = 1", rotate, lam)
		}
		// The solution is θ(1) ± τ·q₁ on the sphere; both signs are optimal.
		want := objective(a, b, reflect(vec.Vector{math.Sqrt(25 - (1.0/9 + 1.0/16 + 1.0/25 + 1.0/36)), 1.0 / 3, 1.0 / 4, 1.0 / 5, 1.0 / 6}, v))
		if got := objective(a, b, theta); got > want+1e-9*math.Abs(want) {
			t.Fatalf("rotate=%v: objective %.17g, optimum %.17g", rotate, got, want)
		}
	}
}

func TestTrustRegionZeroLinearTerm(t *testing.T) {
	src := randx.NewSource(5)
	const n = 5
	b := vec.NewVector(n)
	var tr TrustRegion

	// Positive definite A: the origin, at λ = 0.
	a := spectral(vec.Vector{1, 2, 3, 4, 5}, unit(src, n))
	theta, lam := tr.Solve(a, b, 2)
	checkKKT(t, a, b, 2, theta, lam)
	if lam != 0 || vec.Norm2(theta) != 0 {
		t.Fatalf("b = 0, A ≻ 0: θ = %v, λ = %g", theta, lam)
	}

	// The empty stream's A = 0: the origin.
	zero := vec.NewMatrix(n, n)
	theta, lam = tr.Solve(zero, b, 2)
	checkKKT(t, zero, b, 2, theta, lam)
	if lam != 0 || vec.Norm2(theta) != 0 {
		t.Fatalf("b = 0, A = 0: θ = %v, λ = %g", theta, lam)
	}

	// Indefinite A: the boundary point along the bottom eigenvector.
	a = spectral(vec.Vector{-2, 1, 3, 4, 5}, unit(src, n))
	theta, lam = tr.Solve(a, b, 2)
	checkKKT(t, a, b, 2, theta, lam)
	if got := objective(a, b, theta); math.Abs(got-(-2*4)) > 1e-8 {
		t.Fatalf("b = 0, λ₁ = −2: objective %.17g, want −8", got)
	}

	// A = 0, b ≠ 0: the boundary point along b, at λ = ‖b‖/R.
	b = vec.Vector(src.NormalVector(n, 1))
	theta, lam = tr.Solve(zero, b, 2)
	checkKKT(t, zero, b, 2, theta, lam)
}

func TestTrustRegionReusesWorkspace(t *testing.T) {
	src := randx.NewSource(6)
	const n = 16
	a := spectral(vec.Vector(src.NormalVector(n, 1)), unit(src, n))
	b := vec.Vector(src.NormalVector(n, 1))
	var tr TrustRegion
	tr.Solve(a, b, 1)
	if allocs := testing.AllocsPerRun(20, func() { tr.Solve(a, b, 1) }); allocs != 0 {
		t.Fatalf("Solve allocates %.1f times with a warm workspace", allocs)
	}
}

// checkRidge fails t unless r is the ridge Ridge promises for a matrix with
// smallest eigenvalue lam1: r = 0 when lam1 ≥ floor, and otherwise
// floor − lam1 ≤ r ≤ floor − lam1 + floor/16, to the rounding slack of a
// spectrum of magnitude scale.
func checkRidge(t testing.TB, r, lam1, floor, scale float64) {
	t.Helper()
	slack := 1e-9 * (scale + floor)
	want := math.Max(0, floor-lam1)
	if lam1 >= floor+slack && r != 0 {
		t.Fatalf("λ₁ = %g ≥ floor %g, but ridge %g", lam1, floor, r)
	}
	if r < want-slack || r > want+floor*ridgeTol+slack {
		t.Fatalf("λ₁ = %g, floor %g: ridge %.17g outside [%g, %g]", lam1, floor, r, want, want+floor*ridgeTol)
	}
}

func TestRidge(t *testing.T) {
	src := randx.NewSource(7)
	for _, c := range []struct {
		eig   vec.Vector
		floor float64
	}{
		{vec.Vector{3, 4, 5, 6}, 2},      // above the floor: no ridge
		{vec.Vector{1.5, 4, 5, 6}, 2},    // positive definite below the floor
		{vec.Vector{-3, 1, 2, 5}, 2},     // indefinite
		{vec.Vector{-1, -1, -1, -1}, 10}, // negative definite
		{vec.Vector{0, 0, 0}, 1},         // the empty stream's zero matrix
		{vec.Vector{-5e4, 1e5, 3e5, 2e5, 7e4}, 2e4},
	} {
		for _, v := range []vec.Vector{vec.NewVector(len(c.eig)), unit(src, len(c.eig))} {
			a := spectral(c.eig, v)
			lam1, scale := math.Inf(1), 0.0
			for _, e := range c.eig {
				lam1, scale = math.Min(lam1, e), math.Max(scale, math.Abs(e))
			}
			var tr TrustRegion
			checkRidge(t, tr.Ridge(a, c.floor), lam1, c.floor, scale)
		}
	}
}

// FuzzTrustRegion checks the optimality conditions on random symmetric
// problems A = H·diag(eig)·H with eigenvalues N(shift, 1), random b of scale
// bScale and radius R; with hard set, b is made orthogonal to the bottom
// eigenvector, the hard case whenever A is indefinite and b is short enough.
// It also checks Ridge on A with the floor R.
func FuzzTrustRegion(f *testing.F) {
	f.Add(int64(1), uint8(4), 1.0, 0.0, 1.0, false)
	f.Add(int64(2), uint8(8), 0.5, 3.0, 10.0, false)
	f.Add(int64(3), uint8(12), 2.0, -1.0, 0.1, true)
	f.Add(int64(4), uint8(1), 1.0, -2.0, 0.0, false)
	f.Add(int64(5), uint8(32), 1.0, 0.0, 0.01, true)
	f.Fuzz(func(t *testing.T, seed int64, dim uint8, radius, shift, bScale float64, hard bool) {
		clamp := func(x, lo, hi, def float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return def
			}
			return math.Max(lo, math.Min(hi, x))
		}
		n := 1 + int(dim)%32
		radius = clamp(math.Abs(radius), 1e-3, 1e3, 1)
		shift = clamp(shift, -10, 10, 0)
		bScale = clamp(math.Abs(bScale), 0, 1e3, 1)
		src := randx.NewSource(seed)
		eig := vec.Vector(src.NormalVector(n, 1))
		bottom := 0
		for i := range eig {
			eig[i] += shift
			if eig[i] < eig[bottom] {
				bottom = i
			}
		}
		v := unit(src, n)
		a := spectral(eig, v)
		b := vec.Vector(src.NormalVector(n, bScale))
		if hard {
			b = reflect(b, v)
			b[bottom] = 0
			b = reflect(b, v)
		}
		var tr TrustRegion
		theta, lam := tr.Solve(a, b, radius)
		checkKKT(t, a, b, radius, theta, lam)
		checkRidge(t, tr.Ridge(a, radius), eig[bottom], radius, math.Abs(shift)+10)
	})
}
