package constraint

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

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
		func() { NewL2Ball(3, math.NaN()) },
		func() { NewL2Ball(3, math.Inf(1)) },
		func() { NewL1Ball(3, math.NaN()) },
		func() { NewL1Ball(3, math.Inf(1)) },
		func() { NewLpBall(3, 1.5, math.NaN()) },
		func() { NewLpBall(3, 1.5, math.Inf(1)) },
		func() { NewLpBall(3, math.NaN(), 1) },
		func() { NewSimplex(3, math.NaN()) },
		func() { NewSimplex(3, math.Inf(1)) },
		func() { NewBox(3, math.NaN()) },
		func() { NewBox(3, math.Inf(1)) },
		func() { NewGroupL1Ball(3, 2, math.NaN()) },
		func() { NewGroupL1Ball(3, 2, math.Inf(1)) },
		func() { NewSparseSet(3, 2, math.NaN()) },
		func() { NewSparseSet(3, 2, math.Inf(1)) },
		func() { NewPolytope([]vec.Vector{{1, 0}, {0, math.NaN()}}) },
		func() { NewPolytope([]vec.Vector{{math.Inf(-1), 0}, {0, 1}}) },
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

// TestLpBallNonFiniteInputFeasibleAndFast pins the general Lp ball's rule for
// non-finite input: a NaN or ±Inf coordinate returns the evenly spread
// feasible point r·d^{-1/p}, signed like x, at once, instead of running the
// whole bisection budget to an infeasible point. The fastest of five calls
// must take under 1 ms at d = 32.
func TestLpBallNonFiniteInputFeasibleAndFast(t *testing.T) {
	const d = 32
	for _, p := range []float64{1.5, 3} {
		b := NewLpBall(d, p, 1)
		var s Scratch
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			x := make(vec.Vector, d)
			for i := range x {
				x[i] = 0.5 - float64(i%3)
			}
			x[d/2] = bad
			dst := make(vec.Vector, d)
			fastest := time.Hour
			for run := 0; run < 5; run++ {
				start := time.Now()
				b.ProjectInto(dst, x, &s)
				fastest = min(fastest, time.Since(start))
			}
			if fastest > time.Millisecond {
				t.Errorf("p=%g, x[%d]=%v: projection took %v, want under 1ms", p, d/2, bad, fastest)
			}
			if !vec.IsFinite(dst) || !b.Contains(dst, 1e-12) {
				t.Fatalf("p=%g, x[%d]=%v: projection %v is not a feasible point (‖·‖_p = %v)", p, d/2, bad, dst, vec.NormP(dst, p))
			}
			w := math.Pow(d, -1/p)
			for i, v := range x {
				want := w
				if !(v >= 0) {
					want = -w
				}
				if dst[i] != want {
					t.Fatalf("p=%g, x[%d]=%v: coordinate %d = %v, want %v", p, d/2, bad, i, dst[i], want)
				}
			}
		}
	}
}
