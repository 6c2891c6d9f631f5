package constraint

import (
	"math"
	"math/rand"
	"testing"

	"privreg/internal/vec"
)

func TestPolytopeProjectionMatchesL1Ball(t *testing.T) {
	// The cross-polytope IS the L1 ball, so its iterative projection must agree
	// with the closed-form L1 projection.
	d := 4
	cross := CrossPolytope(d, 1)
	l1 := NewL1Ball(d, 1)
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		x := randomVec(r, d)
		pc := project(cross, x)
		pl := project(l1, x)
		if vec.Dist2(pc, pl) > 2e-2 {
			t.Fatalf("cross-polytope projection %v differs from L1 projection %v (query %v)", pc, pl, x)
		}
	}
}

func TestPolytopeSimplexProjection(t *testing.T) {
	// The convex hull of the standard basis vectors is the probability simplex.
	d := 3
	vs := make([]vec.Vector, d)
	for i := 0; i < d; i++ {
		v := vec.NewVector(d)
		v[i] = 1
		vs[i] = v
	}
	hull := NewPolytope(vs)
	simplex := NewSimplex(d, 1)
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 30; trial++ {
		x := randomVec(r, d)
		ph := project(hull, x)
		ps := project(simplex, x)
		if vec.Dist2(ph, ps) > 2e-2 {
			t.Fatalf("hull projection %v differs from simplex projection %v", ph, ps)
		}
	}
}

func TestPolytopeContainsVerticesAndCentroid(t *testing.T) {
	vs := []vec.Vector{{1, 0}, {0, 1}, {-1, -1}}
	p := NewPolytope(vs)
	for _, v := range vs {
		if !p.Contains(v, 1e-4) {
			t.Fatalf("vertex %v not contained", v)
		}
	}
	centroid := vec.Vector{0, 0}
	if !p.Contains(centroid, 1e-4) {
		t.Fatal("centroid not contained")
	}
	if p.Contains(vec.Vector{2, 2}, 1e-4) {
		t.Fatal("far point reported contained")
	}
}

func TestPolytopeSupportAndDiameter(t *testing.T) {
	vs := []vec.Vector{{2, 0}, {0, 1}, {-1, 0}}
	p := NewPolytope(vs)
	if p.Diameter() != 2 {
		t.Fatalf("diameter = %v", p.Diameter())
	}
	if got := p.SupportFunction(vec.Vector{1, 0}); got != 2 {
		t.Fatalf("support in +x = %v", got)
	}
	if got := p.SupportFunction(vec.Vector{0, -1}); got != 0 {
		t.Fatalf("support in -y = %v", got)
	}
	if len(p.Vertices()) != 3 {
		t.Fatalf("vertices = %d", len(p.Vertices()))
	}
}

func TestPolytopeScale(t *testing.T) {
	p := CrossPolytope(3, 1)
	s := p.Scale(2).(*Polytope)
	if math.Abs(s.Diameter()-2) > 1e-12 {
		t.Fatalf("scaled diameter = %v", s.Diameter())
	}
	if len(s.Vertices()) != len(p.Vertices()) {
		t.Fatal("scaling changed the vertex count")
	}
}

func TestPolytopeVerticesAreCopies(t *testing.T) {
	vs := []vec.Vector{{1, 2}}
	p := NewPolytope(vs)
	vs[0][0] = 99
	if p.Vertices()[0][0] == 99 {
		t.Fatal("polytope shares storage with caller vertices")
	}
	got := p.Vertices()
	got[0][0] = -7
	if p.Vertices()[0][0] == -7 {
		t.Fatal("Vertices() leaks internal storage")
	}
}

func TestSparseSetProjection(t *testing.T) {
	s := NewSparseSet(5, 2, 1)
	x := vec.Vector{0.1, -3, 0.2, 2, 0}
	p := project(s, x)
	// Keeps the two largest-magnitude coordinates (indices 1 and 3), rescaled to
	// the unit ball.
	if p[0] != 0 || p[2] != 0 || p[4] != 0 {
		t.Fatalf("projection kept wrong support: %v", p)
	}
	if vec.Norm2(p) > 1+1e-9 {
		t.Fatalf("projection norm %v > 1", vec.Norm2(p))
	}
	if p[1] >= 0 || p[3] <= 0 {
		t.Fatalf("projection lost signs: %v", p)
	}
	if !s.Contains(p, 1e-9) {
		t.Fatal("projection not contained")
	}
	if s.Contains(vec.Vector{1, 1, 1, 0, 0}, 1e-9) {
		t.Fatal("dense vector reported contained")
	}
	if s.k != 2 {
		t.Fatalf("Sparsity = %d", s.k)
	}
}
