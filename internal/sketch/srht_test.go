package sketch

import (
	"math"
	"testing"

	"privreg/internal/constraint"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

func TestNewSRHTValidation(t *testing.T) {
	src := randx.NewSource(1)
	if _, err := NewSRHT(0, 5, src); err == nil {
		t.Fatal("m=0 should error")
	}
	if _, err := NewSRHT(3, 0, src); err == nil {
		t.Fatal("d=0 should error")
	}
	if _, err := NewSRHT(3, 5, nil); err == nil {
		t.Fatal("nil source should error")
	}
	if _, err := NewSRHT(9, 5, src); err == nil {
		t.Fatal("m above padded dimension should error")
	}
	s, err := NewSRHT(4, 5, src)
	if err != nil {
		t.Fatal(err)
	}
	if s.InputDim() != 5 || s.OutputDim() != 4 {
		t.Fatalf("dims = %d, %d", s.InputDim(), s.OutputDim())
	}
	if s.dpad != 8 {
		t.Fatalf("padded dim = %d, want 8", s.dpad)
	}
	if s.SpectralUpper() <= 0 {
		t.Fatal("spectral bound should be positive")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 63: 64, 64: 64, 65: 128}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Fatalf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestFWHTIsScaledInvolution checks the defining property H(Hx) = n·x of the
// unnormalized Walsh–Hadamard transform.
func TestFWHTIsScaledInvolution(t *testing.T) {
	src := randx.NewSource(2)
	for _, n := range []int{1, 2, 8, 64} {
		x := vec.Vector(src.NormalVector(n, 1))
		w := x.Clone()
		fwht(w)
		fwht(w)
		for i := range x {
			if math.Abs(w[i]-float64(n)*x[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: H(Hx)[%d] = %v, want %v", n, i, w[i], float64(n)*x[i])
			}
		}
	}
}

// TestSRHTAdjointIdentity checks <Φx, u> == <x, Φᵀu> — the property the
// lifting solver's gradient step relies on.
func TestSRHTAdjointIdentity(t *testing.T) {
	src := randx.NewSource(3)
	s, err := NewSRHT(7, 20, src)
	if err != nil {
		t.Fatal(err)
	}
	stu := vec.NewVector(20)
	for trial := 0; trial < 20; trial++ {
		x := vec.Vector(src.NormalVector(20, 1))
		u := vec.Vector(src.NormalVector(7, 1))
		s.ApplyTransposeTo(stu, u)
		if diff := math.Abs(vec.Dot(s.Apply(x), u) - vec.Dot(x, stu)); diff > 1e-10 {
			t.Fatalf("adjoint identity violated by %v", diff)
		}
	}
}

// TestSRHTLinearity checks Φ(ax + by) = aΦx + bΦy, i.e. that the scratch
// buffer reuse does not leak state between applies.
func TestSRHTLinearity(t *testing.T) {
	src := randx.NewSource(4)
	s, err := NewSRHT(8, 30, src)
	if err != nil {
		t.Fatal(err)
	}
	x := vec.Vector(src.NormalVector(30, 1))
	y := vec.Vector(src.NormalVector(30, 1))
	combo := vec.Add(vec.Scaled(x, 2.5), vec.Scaled(y, -1.25))
	want := vec.Add(vec.Scaled(s.Apply(x), 2.5), vec.Scaled(s.Apply(y), -1.25))
	if got := s.Apply(combo); !vec.Equal(got, want, 1e-10) {
		t.Fatalf("linearity violated: %v vs %v", got, want)
	}
}

// TestSRHTIsometryInExpectation checks E‖Φx‖² = ‖x‖² by averaging over many
// independent transforms of a fixed vector — the normalization shared with the
// dense Gaussian projector.
func TestSRHTIsometryInExpectation(t *testing.T) {
	src := randx.NewSource(5)
	d, m := 48, 16
	x := vec.Vector(src.NormalVector(d, 1))
	nx2 := vec.Dot(x, x)
	var sum float64
	const reps = 400
	for r := 0; r < reps; r++ {
		s, err := NewSRHT(m, d, src.Split())
		if err != nil {
			t.Fatal(err)
		}
		px := s.Apply(x)
		sum += vec.Dot(px, px)
	}
	emp := sum / reps
	if math.Abs(emp-nx2)/nx2 > 0.15 {
		t.Fatalf("E‖Φx‖² = %v, want %v (±15%%)", emp, nx2)
	}
}

// TestJLNormPreservationSharedByBackends is the shared Johnson–Lindenstrauss
// property test of the Transform interface: at adequate m, both the dense
// Gaussian projector and the SRHT preserve the norms of sparse unit vectors to
// within (1±γ) with high probability. It runs the identical workload through
// both backends.
func TestJLNormPreservationSharedByBackends(t *testing.T) {
	const (
		d, k  = 256, 4
		m     = 64
		gamma = 0.5 // generous distortion bound; failures are exponentially rare
	)
	for _, backend := range []Backend{BackendDense, BackendSRHT} {
		src := randx.NewSource(11)
		tf, err := New(backend, m, d, src.Split())
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		if tf.InputDim() != d || tf.OutputDim() != m {
			t.Fatalf("%v: dims %d→%d", backend, tf.InputDim(), tf.OutputDim())
		}
		for trial := 0; trial < 200; trial++ {
			x := vec.Vector(src.SparseVector(d, k))
			ratio := vec.Norm2(tf.Apply(x)) / vec.Norm2(x)
			if ratio < 1-gamma || ratio > 1+gamma {
				t.Fatalf("%v: norm ratio %v outside (1±%v) on trial %d", backend, ratio, gamma, trial)
			}
		}
		// The rescaled apply must make the preservation exact (footnote 15).
		for trial := 0; trial < 20; trial++ {
			x := vec.Vector(src.SparseVector(d, k))
			px := vec.NewVector(tf.OutputDim())
			tf.ScaledApplyTo(px, x)
			if diff := math.Abs(vec.Norm2(px) - vec.Norm2(x)); diff > 1e-9 {
				t.Fatalf("%v: ScaledApplyTo norm off by %v", backend, diff)
			}
		}
	}
}

// TestBackendSelection pins down the constructor dispatch.
func TestBackendSelection(t *testing.T) {
	src := randx.NewSource(6)
	tf, err := New(BackendDense, 4, 16, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tf.(*Projector); !ok {
		t.Fatalf("BackendDense built %T", tf)
	}
	tf, err = New(BackendSRHT, 4, 16, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tf.(*SRHT); !ok {
		t.Fatalf("BackendSRHT built %T", tf)
	}
	if _, err := New(Backend(99), 4, 16, src.Split()); err == nil {
		t.Fatal("unknown backend should error")
	}
}

// TestSRHTApplyZeroAlloc asserts the steady-state allocation contract of the
// fast path: ApplyTo, ApplyTransposeTo and ScaledApplyTo must not touch the
// heap.
func TestSRHTApplyZeroAlloc(t *testing.T) {
	src := randx.NewSource(7)
	s, err := NewSRHT(64, 512, src)
	if err != nil {
		t.Fatal(err)
	}
	x := vec.Vector(src.NormalVector(512, 1))
	dst := vec.NewVector(64)
	back := vec.NewVector(512)
	if allocs := testing.AllocsPerRun(100, func() { s.ApplyTo(dst, x) }); allocs != 0 {
		t.Fatalf("SRHT.ApplyTo allocates %v times per run", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.ScaledApplyTo(dst, x) }); allocs != 0 {
		t.Fatalf("SRHT.ScaledApplyTo allocates %v times per run", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.ApplyTransposeTo(back, dst) }); allocs != 0 {
		t.Fatalf("SRHT.ApplyTransposeTo allocates %v times per run", allocs)
	}
}

// TestSRHTLiftRecoversProjectedPoint mirrors the dense lifting test: the
// Step-9 recovery program must work unchanged on the fast backend.
func TestSRHTLiftRecoversProjectedPoint(t *testing.T) {
	d := 96
	cons := constraint.NewL1Ball(d, 1)
	src := randx.NewSource(8)
	theta := vec.Vector(src.SparseVector(d, 3))
	cons.ProjectInto(theta, theta, nil)
	s, err := NewSRHT(48, d, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	target := s.Apply(theta)
	lifted, err := s.Lift(cons, target, LiftOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cons.Contains(lifted, 1e-3) {
		t.Fatalf("lifted point outside C: ‖lifted‖₁ = %v", vec.Norm1(lifted))
	}
	if res := vec.Dist2(s.Apply(lifted), target); res > 1e-2*(1+vec.Norm2(target)) {
		t.Fatalf("lift residual %v too large", res)
	}
}

// TestSRHTImageSetVariants checks the projected-domain construction on the
// fast backend.
func TestSRHTImageSetVariants(t *testing.T) {
	src := randx.NewSource(9)
	d, m := 16, 5
	s, err := NewSRHT(m, d, src)
	if err != nil {
		t.Fatal(err)
	}
	img := s.ImageSet(constraint.NewL1Ball(d, 1), 0.2)
	poly, ok := img.(*constraint.Polytope)
	if !ok {
		t.Fatalf("L1 image should be a polytope, got %T", img)
	}
	if len(poly.Vertices()) != 2*d || poly.Dim() != m {
		t.Fatalf("polytope image: %d vertices in dim %d", len(poly.Vertices()), poly.Dim())
	}
	img2 := s.ImageSet(constraint.NewL2Ball(d, 1), 0.2)
	if _, ok := img2.(*constraint.L2Ball); !ok {
		t.Fatalf("L2 image should be a ball relaxation, got %T", img2)
	}
}
