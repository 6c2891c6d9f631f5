package sketch

import (
	"math"
	"testing"

	"privreg/internal/constraint"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

func TestNewProjectorValidation(t *testing.T) {
	src := randx.NewSource(1)
	if _, err := NewProjector(0, 5, src); err == nil {
		t.Fatal("m=0 should error")
	}
	if _, err := NewProjector(3, 0, src); err == nil {
		t.Fatal("d=0 should error")
	}
	if _, err := NewProjector(3, 5, nil); err == nil {
		t.Fatal("nil source should error")
	}
	p, err := NewProjector(3, 5, src)
	if err != nil {
		t.Fatal(err)
	}
	if p.InputDim() != 5 || p.OutputDim() != 3 {
		t.Fatalf("dims = %d, %d", p.InputDim(), p.OutputDim())
	}
	if p.phi.Rows() != 3 || p.phi.Cols() != 5 {
		t.Fatal("matrix shape wrong")
	}
	if p.SpectralUpper() <= 0 {
		t.Fatal("spectral bound should be positive")
	}
}

func TestProjectorEntryDistribution(t *testing.T) {
	// Entries are N(0, 1/m): the empirical variance of the entries must match.
	src := randx.NewSource(2)
	m, d := 40, 200
	p, err := NewProjector(m, d, src)
	if err != nil {
		t.Fatal(err)
	}
	var ss float64
	for _, v := range p.phi.Data() {
		ss += v * v
	}
	emp := ss / float64(m*d)
	if math.Abs(emp-1.0/float64(m))/(1.0/float64(m)) > 0.1 {
		t.Fatalf("entry variance %v, want %v", emp, 1.0/float64(m))
	}
}

func TestApplyAndTranspose(t *testing.T) {
	src := randx.NewSource(3)
	p, err := NewProjector(2, 3, src)
	if err != nil {
		t.Fatal(err)
	}
	x := vec.Vector{1, -1, 0.5}
	px := p.Apply(x)
	if len(px) != 2 {
		t.Fatalf("Apply output dim = %d", len(px))
	}
	u := vec.Vector{0.3, 0.7}
	ptu := vec.NewVector(3)
	p.ApplyTransposeTo(ptu, u)
	if len(ptu) != 3 {
		t.Fatalf("ApplyTransposeTo output dim = %d", len(ptu))
	}
	// <Φx, u> == <x, Φᵀu>.
	if math.Abs(vec.Dot(px, u)-vec.Dot(x, ptu)) > 1e-12 {
		t.Fatal("adjoint identity violated")
	}
}

func TestScaledApplyPreservesNorm(t *testing.T) {
	src := randx.NewSource(4)
	p, err := NewProjector(8, 64, src)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		x := vec.Vector(src.SparseVector(64, 3))
		x.Scale(0.5 + 0.5*src.Float64())
		px := vec.NewVector(8)
		p.ScaledApplyTo(px, x)
		if math.Abs(vec.Norm2(px)-vec.Norm2(x)) > 1e-9 {
			t.Fatalf("‖Φx̃‖ = %v, want ‖x‖ = %v", vec.Norm2(px), vec.Norm2(x))
		}
	}
	// Zero vector maps to zero.
	px := vec.Vector{1, 1, 1, 1, 1, 1, 1, 1}
	p.ScaledApplyTo(px, vec.NewVector(64))
	if vec.Norm2(px) != 0 {
		t.Fatal("zero covariate should map to zero")
	}
}

func TestApproximateNormPreservationAtAdequateM(t *testing.T) {
	// With m well above w(S)², unscaled projection should preserve norms of
	// sparse vectors to within ~30%.
	src := randx.NewSource(5)
	d, k := 128, 3
	domain := constraint.NewSparseSet(d, k, 1)
	w := domain.GaussianWidth()
	m := int(4 * w * w)
	p, err := NewProjector(m, d, src)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		x := vec.Vector(src.SparseVector(d, k))
		ratio := vec.Norm2(p.Apply(x)) / vec.Norm2(x)
		if ratio < 0.6 || ratio > 1.4 {
			t.Fatalf("norm ratio %v outside [0.6, 1.4] at m=%d", ratio, m)
		}
	}
}

func TestImageSetVariants(t *testing.T) {
	src := randx.NewSource(6)
	d, m := 16, 5
	p, err := NewProjector(m, d, src)
	if err != nil {
		t.Fatal(err)
	}
	// L1 ball → polytope image with 2d vertices.
	img := p.ImageSet(constraint.NewL1Ball(d, 1), 0.2)
	poly, ok := img.(*constraint.Polytope)
	if !ok {
		t.Fatalf("L1 image should be a polytope, got %T", img)
	}
	if len(poly.Vertices()) != 2*d {
		t.Fatalf("polytope image has %d vertices, want %d", len(poly.Vertices()), 2*d)
	}
	if poly.Dim() != m {
		t.Fatalf("polytope image dimension = %d", poly.Dim())
	}
	// Every projected point of C must lie in the image set.
	l1 := constraint.NewL1Ball(d, 1)
	for trial := 0; trial < 20; trial++ {
		theta := vec.Vector(src.NormalVector(d, 1))
		l1.ProjectInto(theta, theta, nil)
		if !img.Contains(p.Apply(theta), 1e-2) {
			t.Fatalf("Φθ not contained in the exact image set")
		}
	}
	// L2 ball → ball relaxation.
	img2 := p.ImageSet(constraint.NewL2Ball(d, 1), 0.2)
	if _, ok := img2.(*constraint.L2Ball); !ok {
		t.Fatalf("L2 image should be a ball relaxation, got %T", img2)
	}
	if math.Abs(img2.Diameter()-1.2) > 1e-12 {
		t.Fatalf("relaxed ball radius = %v, want 1.2", img2.Diameter())
	}
}

func TestLiftRecoversProjectedPoint(t *testing.T) {
	// Lifting Φθ for θ ∈ C must recover a feasible point whose projection matches
	// the target, with error shrinking as m grows (Theorem 5.3).
	d := 96
	cons := constraint.NewL1Ball(d, 1)
	src := randx.NewSource(7)
	theta := vec.Vector(src.SparseVector(d, 3))
	cons.ProjectInto(theta, theta, nil)
	errAt := func(m int) float64 {
		p, err := NewProjector(m, d, src.Split())
		if err != nil {
			t.Fatal(err)
		}
		target := p.Apply(theta)
		lifted, err := p.Lift(cons, target, LiftOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !cons.Contains(lifted, 1e-3) {
			t.Fatalf("lifted point outside C (m=%d): ‖lifted‖₁=%v", m, vec.Norm1(lifted))
		}
		// The lifted point must reproduce the projection target closely.
		if res := vec.Dist2(p.Apply(lifted), target); res > 1e-2*(1+vec.Norm2(target)) {
			t.Fatalf("lift residual %v too large at m=%d", res, m)
		}
		return vec.Dist2(lifted, theta)
	}
	e8 := errAt(8)
	e48 := errAt(48)
	if e48 > e8+1e-9 && e48 > 0.3 {
		t.Fatalf("lift error should shrink with m: m=8 → %v, m=48 → %v", e8, e48)
	}
}

func TestLiftZeroTargetAndValidation(t *testing.T) {
	d := 10
	cons := constraint.NewL1Ball(d, 1)
	src := randx.NewSource(8)
	p, err := NewProjector(4, d, src)
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := p.Lift(cons, vec.NewVector(4), LiftOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vec.Norm2(lifted) != 0 {
		t.Fatalf("lift of zero target = %v", lifted)
	}
	if _, err := p.Lift(nil, vec.NewVector(4), LiftOptions{}); err == nil {
		t.Fatal("nil constraint should error")
	}
	if _, err := p.Lift(cons, vec.NewVector(3), LiftOptions{}); err == nil {
		t.Fatal("wrong-dimension target should error")
	}
}

func TestLiftPrefersSmallMinkowskiNorm(t *testing.T) {
	// When the target is the projection of a point deep inside C, the lift should
	// return a point with Minkowski norm close to (not much larger than) the
	// original's.
	d := 48
	cons := constraint.NewL1Ball(d, 1)
	src := randx.NewSource(9)
	theta := vec.NewVector(d)
	theta[3] = 0.4 // ‖θ‖_C = 0.4
	p, err := NewProjector(24, d, src)
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := p.Lift(cons, p.Apply(theta), LiftOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := vec.Norm1(lifted); got > 0.8 { // ‖·‖_C of the unit L1 ball
		t.Fatalf("lifted Minkowski norm %v much larger than original 0.4", got)
	}
}
