package constraint

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"privreg/internal/vec"
)

// allSets returns one instance of every provided set in dimension d, used by
// the shared property tests.
func allSets(d int) []Set {
	sets := []Set{
		NewL2Ball(d, 1.5),
		NewL1Ball(d, 1.2),
		NewLpBall(d, 1.5, 1.0),
		NewLpBall(d, 3.0, 1.0),
		NewSimplex(d, 1),
		NewBox(d, 0.8),
		NewGroupL1Ball(d, 2, 1.0),
		NewSparseSet(d, maxI(1, d/2), 1.0),
	}
	if d <= 6 {
		sets = append(sets, CrossPolytope(d, 1.0))
	}
	return sets
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func randomVec(r *rand.Rand, d int) vec.Vector {
	v := make(vec.Vector, d)
	for i := range v {
		v[i] = 2 * r.NormFloat64()
	}
	return v
}

// project returns the projection of x onto s as a new vector.
func project(s Set, x vec.Vector) vec.Vector {
	out := vec.NewVector(len(x))
	s.ProjectInto(out, x, nil)
	return out
}

// TestProjectionProperties checks, for every set, the three defining properties
// of Euclidean projection onto a closed set: the result is feasible, projection
// is idempotent, and points already in the set are (essentially) fixed.
func TestProjectionProperties(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	dims := []int{1, 2, 3, 5, 8}
	for _, d := range dims {
		for _, s := range allSets(d) {
			for trial := 0; trial < 25; trial++ {
				x := randomVec(r, d)
				p := project(s, x)
				tol := 1e-6 * (1 + vec.Norm2(x))
				if !s.Contains(p, tol) {
					t.Fatalf("%s: projection of %v = %v is not feasible", s.Name(), x, p)
				}
				pp := project(s, p)
				if vec.Dist2(pp, p) > 1e-5*(1+vec.Norm2(p)) {
					t.Fatalf("%s: projection not idempotent: %v -> %v", s.Name(), p, pp)
				}
			}
			// A feasible point must be (nearly) fixed by projection.
			inside := project(s, randomVec(r, d))
			fixed := project(s, inside)
			if vec.Dist2(fixed, inside) > 1e-5*(1+vec.Norm2(inside)) {
				t.Fatalf("%s: feasible point moved by projection", s.Name())
			}
		}
	}
}

// TestProjectionOptimality verifies, for the convex sets, that no sampled
// feasible point is closer to the query than the returned projection — the
// defining optimality property.
func TestProjectionOptimality(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	d := 4
	sets := []Set{
		NewL2Ball(d, 1),
		NewL1Ball(d, 1),
		NewLpBall(d, 1.5, 1),
		NewSimplex(d, 1),
		NewBox(d, 0.5),
		NewGroupL1Ball(d, 2, 1),
		CrossPolytope(d, 1),
	}
	for _, s := range sets {
		for trial := 0; trial < 10; trial++ {
			x := randomVec(r, d)
			p := project(s, x)
			dist := vec.Dist2(p, x)
			for probe := 0; probe < 200; probe++ {
				q := project(s, randomVec(r, d)) // a feasible point
				if vec.Dist2(q, x) < dist-1e-6 {
					t.Fatalf("%s: found feasible %v closer to %v than projection %v (%.6f < %.6f)",
						s.Name(), q, x, p, vec.Dist2(q, x), dist)
				}
			}
		}
	}
}

// TestProjectionNonExpansive checks the 1-Lipschitz property of projection onto
// the convex sets: ‖P(x) - P(y)‖ ≤ ‖x - y‖.
func TestProjectionNonExpansive(t *testing.T) {
	d := 6
	convex := []Set{
		NewL2Ball(d, 1), NewL1Ball(d, 1), NewLpBall(d, 1.7, 1), NewSimplex(d, 1),
		NewBox(d, 0.7), NewGroupL1Ball(d, 3, 1),
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randomVec(r, d)
		y := randomVec(r, d)
		for _, s := range convex {
			if vec.Dist2(project(s, x), project(s, y)) > vec.Dist2(x, y)+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDiameterIsAttainedBound(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, d := range []int{2, 4, 7} {
		for _, s := range allSets(d) {
			diam := s.Diameter()
			for trial := 0; trial < 50; trial++ {
				p := project(s, randomVec(r, d))
				if vec.Norm2(p) > diam*(1+1e-6)+1e-9 {
					t.Fatalf("%s: feasible point norm %v exceeds diameter %v", s.Name(), vec.Norm2(p), diam)
				}
			}
		}
	}
}

func TestSupportFunctionDominatesFeasiblePoints(t *testing.T) {
	// h_S(g) must upper bound <p, g> for every feasible p.
	r := rand.New(rand.NewSource(14))
	for _, d := range []int{2, 5} {
		for _, s := range allSets(d) {
			for trial := 0; trial < 30; trial++ {
				g := randomVec(r, d)
				h := s.SupportFunction(g)
				p := project(s, randomVec(r, d))
				if vec.Dot(p, g) > h+1e-6*(1+math.Abs(h)) {
					t.Fatalf("%s: support function %v < attained value %v", s.Name(), h, vec.Dot(p, g))
				}
			}
		}
	}
}

func TestMinkowskiNormProperties(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	d := 5
	// Symmetric norm-ball sets: ‖x‖_C is a norm; x / ‖x‖_C lies on the boundary.
	ballSets := []Set{NewL2Ball(d, 2), NewL1Ball(d, 1.5), NewLpBall(d, 1.5, 1), NewBox(d, 0.5), NewGroupL1Ball(d, 2, 1)}
	for _, s := range ballSets {
		for trial := 0; trial < 20; trial++ {
			x := randomVec(r, d)
			nx := s.MinkowskiNorm(x)
			if nx <= 0 {
				t.Fatalf("%s: Minkowski norm of nonzero vector = %v", s.Name(), nx)
			}
			// Homogeneity.
			if math.Abs(s.MinkowskiNorm(vec.Scaled(x, 3))-3*nx) > 1e-9*(1+nx) {
				t.Fatalf("%s: Minkowski norm not homogeneous", s.Name())
			}
			// Membership characterization: x/nx is on the boundary (in the set),
			// x/(0.9 nx) is outside.
			if !s.Contains(vec.Scaled(x, 1/nx), 1e-9*(1+vec.Norm2(x))+1e-9) {
				t.Fatalf("%s: x/‖x‖_C not in the set", s.Name())
			}
			if s.Contains(vec.Scaled(x, 1/(0.9*nx)), 1e-9) {
				t.Fatalf("%s: x/(0.9‖x‖_C) should be outside the set", s.Name())
			}
		}
		// Zero maps to zero.
		if s.MinkowskiNorm(vec.NewVector(d)) != 0 {
			t.Fatalf("%s: Minkowski norm of 0 != 0", s.Name())
		}
	}
	// Simplex: finite only on the non-negative orthant.
	sx := NewSimplex(3, 1)
	if got := sx.MinkowskiNorm(vec.Vector{0.2, 0.3, 0.5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("simplex Minkowski norm = %v, want 1", got)
	}
	if got := sx.MinkowskiNorm(vec.Vector{-0.1, 0.5, 0.6}); !math.IsInf(got, 1) {
		t.Fatalf("simplex Minkowski norm of negative vector = %v, want +Inf", got)
	}
	// SparseSet: +Inf for dense vectors.
	sp := NewSparseSet(5, 2, 1)
	if got := sp.MinkowskiNorm(vec.Vector{1, 1, 1, 0, 0}); !math.IsInf(got, 1) {
		t.Fatalf("sparse Minkowski norm of dense vector = %v, want +Inf", got)
	}
	if got := sp.MinkowskiNorm(vec.Vector{0.6, 0, 0.8, 0, 0}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("sparse Minkowski norm = %v, want 1", got)
	}
}

func TestScaleConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	d := 4
	for _, s := range allSets(d) {
		scaled := s.Scale(2)
		if math.Abs(scaled.Diameter()-2*s.Diameter()) > 1e-9 {
			t.Fatalf("%s: scaled diameter %v != 2×%v", s.Name(), scaled.Diameter(), s.Diameter())
		}
		for trial := 0; trial < 20; trial++ {
			p := project(s, randomVec(r, d))
			if !scaled.Contains(vec.Scaled(p, 2), 1e-6) {
				t.Fatalf("%s: 2×feasible point not in 2×set", s.Name())
			}
		}
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	s := NewL2Ball(3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	project(s, vec.Vector{1, 2})
}

func TestConstructorValidation(t *testing.T) {
	cases := []func(){
		func() { NewL2Ball(0, 1) },
		func() { NewL2Ball(2, 0) },
		func() { NewL1Ball(2, -1) },
		func() { NewLpBall(2, 0.5, 1) },
		func() { NewSimplex(0, 1) },
		func() { NewBox(2, 0) },
		func() { NewGroupL1Ball(2, 0, 1) },
		func() { NewSparseSet(2, 0, 1) },
		func() { NewPolytope(nil) },
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			c()
		}()
	}
}
