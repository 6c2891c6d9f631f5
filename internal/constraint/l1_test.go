package constraint

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"privreg/internal/vec"
)

func TestSimplexProjectionKnownCases(t *testing.T) {
	// Already on the simplex: unchanged.
	p := project(NewSimplex(3, 1), vec.Vector{0.2, 0.3, 0.5})
	if !vec.Equal(p, vec.Vector{0.2, 0.3, 0.5}, 1e-9) {
		t.Fatalf("projection moved a simplex point: %v", p)
	}
	// Symmetric point: uniform.
	p = project(NewSimplex(3, 1), vec.Vector{5, 5, 5})
	if !vec.Equal(p, vec.Vector{1.0 / 3, 1.0 / 3, 1.0 / 3}, 1e-9) {
		t.Fatalf("projection of symmetric point: %v", p)
	}
	// Dominant coordinate collapses to a vertex.
	p = project(NewSimplex(3, 1), vec.Vector{10, 0, 0})
	if !vec.Equal(p, vec.Vector{1, 0, 0}, 1e-9) {
		t.Fatalf("projection of dominant point: %v", p)
	}
	// Negative coordinates are zeroed out.
	p = project(NewSimplex(3, 1), vec.Vector{-5, 0.4, 0.8})
	if p[0] != 0 {
		t.Fatalf("negative coordinate survived: %v", p)
	}
	if math.Abs(vec.Sum(p)-1) > 1e-9 {
		t.Fatalf("projection mass = %v", vec.Sum(p))
	}
}

func TestL1ProjectionKnownCases(t *testing.T) {
	b := NewL1Ball(3, 1)
	// Inside: unchanged.
	in := vec.Vector{0.2, -0.3, 0.1}
	if !vec.Equal(project(b, in), in, 1e-12) {
		t.Fatal("interior point moved")
	}
	// Symmetric outside point: soft-thresholded symmetrically.
	p := project(b, vec.Vector{1, 1, 1})
	if !vec.Equal(p, vec.Vector{1.0 / 3, 1.0 / 3, 1.0 / 3}, 1e-9) {
		t.Fatalf("projection of (1,1,1): %v", p)
	}
	// Signs are preserved.
	p = project(b, vec.Vector{-2, 2, 0})
	if p[0] >= 0 || p[1] <= 0 {
		t.Fatalf("signs not preserved: %v", p)
	}
	if math.Abs(vec.Norm1(p)-1) > 1e-9 {
		t.Fatalf("projection L1 norm = %v", vec.Norm1(p))
	}
}

// TestL1ProjectionAgainstQuadraticCheck verifies optimality via the variational
// inequality <x - P(x), q - P(x)> ≤ 0 for feasible q.
func TestL1ProjectionVariationalInequality(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	b := NewL1Ball(6, 1)
	for trial := 0; trial < 50; trial++ {
		x := randomVec(r, 6)
		p := project(b, x)
		for probe := 0; probe < 50; probe++ {
			q := project(b, randomVec(r, 6))
			if vec.Dot(vec.Sub(x, p), vec.Sub(q, p)) > 1e-6 {
				t.Fatalf("variational inequality violated: x=%v p=%v q=%v", x, p, q)
			}
		}
	}
}

// TestGroupL1ReducesToL1 checks that with block size 1 the group-L1 ball
// coincides with the L1 ball (norm, projection, width order).
func TestGroupL1ReducesToL1(t *testing.T) {
	d := 7
	g := NewGroupL1Ball(d, 1, 1.3)
	l := NewL1Ball(d, 1.3)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randomVec(r, d)
		if math.Abs(g.Norm(x)-vec.Norm1(x)) > 1e-9 {
			return false
		}
		return vec.Equal(project(g, x), project(l, x), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupL1BlockStructure(t *testing.T) {
	g := NewGroupL1Ball(6, 2, 1)
	if len(g.groups) != 3 {
		t.Fatalf("groups = %d", len(g.groups))
	}
	// Norm of a vector supported on a single block is that block's L2 norm.
	x := vec.Vector{3, 4, 0, 0, 0, 0}
	if math.Abs(g.Norm(x)-5) > 1e-12 {
		t.Fatalf("group norm = %v, want 5", g.Norm(x))
	}
	// Uneven final block.
	g2 := NewGroupL1Ball(5, 2, 1)
	if len(g2.groups) != 3 {
		t.Fatalf("groups with ragged tail = %d", len(g2.groups))
	}
	y := vec.Vector{0, 0, 0, 0, 2}
	if math.Abs(g2.Norm(y)-2) > 1e-12 {
		t.Fatalf("ragged-tail group norm = %v", g2.Norm(y))
	}
}

func TestLpProjectionSpecialCasesAgree(t *testing.T) {
	// p = 1, 2, ∞ must agree with the dedicated implementations.
	r := rand.New(rand.NewSource(22))
	d := 5
	l1 := NewL1Ball(d, 1)
	l2 := NewL2Ball(d, 1)
	box := NewBox(d, 1)
	lp1 := NewLpBall(d, 1, 1)
	lp2 := NewLpBall(d, 2, 1)
	lpInf := NewLpBall(d, math.Inf(1), 1)
	for trial := 0; trial < 40; trial++ {
		x := randomVec(r, d)
		if !vec.Equal(project(lp1, x), project(l1, x), 1e-7) {
			t.Fatalf("Lp(1) projection disagrees with L1: %v", x)
		}
		if !vec.Equal(project(lp2, x), project(l2, x), 1e-7) {
			t.Fatalf("Lp(2) projection disagrees with L2: %v", x)
		}
		if !vec.Equal(project(lpInf, x), project(box, x), 1e-7) {
			t.Fatalf("Lp(inf) projection disagrees with Box: %v", x)
		}
	}
}

func TestLpGeneralProjectionKKT(t *testing.T) {
	// For general p the projection must land exactly on the sphere ‖y‖_p = r when
	// the input is outside, and satisfy the variational inequality.
	r := rand.New(rand.NewSource(23))
	for _, p := range []float64{1.3, 1.5, 1.8, 3, 5} {
		b := NewLpBall(4, p, 1)
		for trial := 0; trial < 20; trial++ {
			x := randomVec(r, 4)
			x.Scale(3) // push outside
			y := project(b, x)
			if math.Abs(vec.NormP(y, p)-1) > 1e-5 {
				t.Fatalf("p=%v: projection norm %v != 1", p, vec.NormP(y, p))
			}
			for probe := 0; probe < 30; probe++ {
				q := project(b, randomVec(r, 4))
				if vec.Dot(vec.Sub(x, y), vec.Sub(q, y)) > 1e-4 {
					t.Fatalf("p=%v: variational inequality violated", p)
				}
			}
		}
	}
}

func TestSolveScalarLp(t *testing.T) {
	// u + λp u^{p-1} = a must be solved accurately.
	for _, tc := range []struct{ a, lambda, p float64 }{
		{1, 0.5, 1.5}, {2, 0.1, 3}, {0.3, 2, 1.2}, {5, 1, 2.5},
	} {
		u := solveScalarLp(tc.a, tc.lambda, tc.p)
		got := u + tc.lambda*tc.p*math.Pow(u, tc.p-1)
		if math.Abs(got-tc.a) > 1e-9*(1+tc.a) {
			t.Fatalf("solveScalarLp(%v): residual %v", tc, got-tc.a)
		}
	}
	if solveScalarLp(0, 1, 2) != 0 {
		t.Fatal("a=0 should give u=0")
	}
	if solveScalarLp(3, 0, 2) != 3 {
		t.Fatal("λ=0 should give u=a")
	}
}
