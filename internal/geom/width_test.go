package geom

import (
	"math"
	"testing"

	"privreg/internal/constraint"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

func TestGordonDimension(t *testing.T) {
	// m must grow like w²/γ² and be clamped to the ambient dimension.
	m1 := GordonDimension(4, 0.5, 0.05, 1000)
	m2 := GordonDimension(8, 0.5, 0.05, 1000)
	if m2 <= m1 {
		t.Fatalf("dimension should grow with width: %d vs %d", m1, m2)
	}
	m3 := GordonDimension(4, 0.25, 0.05, 1000)
	if m3 <= m1 {
		t.Fatalf("dimension should grow as gamma shrinks: %d vs %d", m3, m1)
	}
	if got := GordonDimension(100, 0.1, 0.05, 50); got != 50 {
		t.Fatalf("dimension not clamped to ambient: %d", got)
	}
	if got := GordonDimension(4, 0.5, 0.05, 0); got < 1 {
		t.Fatalf("dimension should be at least 1: %d", got)
	}
	// Exact formula check: max(w², log(1/β))/γ².
	w, gamma, beta := 3.0, 0.5, 0.01
	want := int(math.Ceil(math.Max(w*w, math.Log(1/beta)) / (gamma * gamma)))
	if got := GordonDimension(w, gamma, beta, 10000); got != want {
		t.Fatalf("GordonDimension = %d, want %d", got, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for gamma out of range")
			}
		}()
		GordonDimension(1, 2, 0.05, 10)
	}()
}

func TestProjectionGamma(t *testing.T) {
	// γ = W^{1/3}/T^{1/3}, clamped to (0, 1/2].
	got := ProjectionGamma(8, 1000)
	want := math.Cbrt(8) / math.Cbrt(1000)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("gamma = %v, want %v", got, want)
	}
	if ProjectionGamma(1000, 2) != 0.5 {
		t.Fatal("gamma should clamp to 0.5")
	}
	if g := ProjectionGamma(0, 0); g <= 0 || g > 0.5 {
		t.Fatalf("degenerate inputs gave gamma %v", g)
	}
	// Larger T → smaller γ (finer embedding, bigger m).
	if ProjectionGamma(8, 100000) >= ProjectionGamma(8, 100) {
		t.Fatal("gamma should shrink with T")
	}
}

func TestNormDistortionIdentityAndScaling(t *testing.T) {
	src := randx.NewSource(2)
	pts := make([]vec.Vector, 20)
	for i := range pts {
		pts[i] = vec.Vector(src.UnitSphere(8))
	}
	identity := func(x vec.Vector) vec.Vector { return x.Clone() }
	if d := NormDistortion(identity, pts); d != 0 {
		t.Fatalf("identity distortion = %v", d)
	}
	double := func(x vec.Vector) vec.Vector { return vec.Scaled(x, 2) }
	if d := NormDistortion(double, pts); math.Abs(d-3) > 1e-9 { // |4-1|/1 = 3
		t.Fatalf("doubling distortion = %v, want 3", d)
	}
	// Zero points are skipped.
	if d := NormDistortion(identity, []vec.Vector{vec.NewVector(8)}); d != 0 {
		t.Fatalf("zero-point distortion = %v", d)
	}
}

func TestLiftErrorBound(t *testing.T) {
	c := constraint.NewL1Ball(256, 1)
	b1 := LiftErrorBound(c, 16, 0.05)
	b2 := LiftErrorBound(c, 64, 0.05)
	if b2 >= b1 {
		t.Fatalf("lift bound should shrink with m: %v vs %v", b1, b2)
	}
	// Exact formula.
	want := c.GaussianWidth()/4 + c.Diameter()*math.Sqrt(math.Log(1/0.05))/4
	if math.Abs(b1-want) > 1e-12 {
		t.Fatalf("lift bound = %v, want %v", b1, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for m=0")
			}
		}()
		LiftErrorBound(c, 0, 0.05)
	}()
}

// TestGordonEmbeddingEmpirically verifies the substance of Theorem 5.1: a
// Gaussian projection with m ≈ w(S)²/γ² rows preserves the norms of points of a
// low-width set to within γ (with comfortable slack), while a much smaller m
// does not.
func TestGordonEmbeddingEmpirically(t *testing.T) {
	src := randx.NewSource(4)
	d, k := 128, 3
	domain := constraint.NewSparseSet(d, k, 1)
	gamma := 0.35
	m := GordonDimension(domain.GaussianWidth(), gamma, 0.05, d)
	sigma := 1 / math.Sqrt(float64(m))
	phi := vec.NewMatrix(m, d)
	for i := range phi.Data() {
		phi.Data()[i] = src.Normal(0, sigma)
	}
	project := func(x vec.Vector) vec.Vector { return phi.MulVec(x) }
	pts := make([]vec.Vector, 100)
	for i := range pts {
		pts[i] = vec.Vector(src.SparseVector(d, k))
	}
	dist := NormDistortion(project, pts)
	if dist > 2.5*gamma {
		t.Fatalf("distortion %v far exceeds target %v at m=%d", dist, gamma, m)
	}
}
