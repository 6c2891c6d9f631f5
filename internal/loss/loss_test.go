package loss

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"privreg/internal/constraint"
	"privreg/internal/vec"
)

func randomPoint(r *rand.Rand, d int) Point {
	x := make(vec.Vector, d)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	n := vec.Norm2(x)
	if n > 1 {
		x.Scale(1 / n)
	}
	y := 2*r.Float64() - 1
	return Point{X: x, Y: y}
}

func randomTheta(r *rand.Rand, d int) vec.Vector {
	th := make(vec.Vector, d)
	for i := range th {
		th[i] = 0.5 * r.NormFloat64()
	}
	return th
}

// numericalGradient approximates ∇ℓ by central differences.
func numericalGradient(f Function, theta vec.Vector, z Point) vec.Vector {
	const h = 1e-6
	g := make(vec.Vector, len(theta))
	for i := range theta {
		plus := theta.Clone()
		plus[i] += h
		minus := theta.Clone()
		minus[i] -= h
		g[i] = (f.Value(plus, z) - f.Value(minus, z)) / (2 * h)
	}
	return g
}

func smoothLosses() []Function {
	return []Function{
		Squared{},
		Logistic{},
		Huber{Delta: 0.8},
		L2Regularized{Base: Squared{}, Lambda: 0.3},
		L2Regularized{Base: Logistic{}, Lambda: 0.1},
	}
}

func TestGradientsMatchFiniteDifferences(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, f := range smoothLosses() {
		for trial := 0; trial < 30; trial++ {
			d := 1 + r.Intn(6)
			z := randomPoint(r, d)
			theta := randomTheta(r, d)
			got := f.Gradient(theta, z)
			want := numericalGradient(f, theta, z)
			if vec.Dist2(got, want) > 1e-4*(1+vec.Norm2(want)) {
				t.Fatalf("%s: gradient mismatch at θ=%v z=%v: got %v want %v", f.Name(), theta, z, got, want)
			}
		}
	}
}

func TestHingeGradientAwayFromKink(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := Hinge{}
	for trial := 0; trial < 50; trial++ {
		d := 1 + r.Intn(5)
		z := randomPoint(r, d)
		theta := randomTheta(r, d)
		if math.Abs(1-z.Y*vec.Dot(z.X, theta)) < 1e-3 {
			continue // skip the non-differentiable kink
		}
		got := f.Gradient(theta, z)
		want := numericalGradient(f, theta, z)
		if vec.Dist2(got, want) > 1e-4*(1+vec.Norm2(want)) {
			t.Fatalf("hinge gradient mismatch: got %v want %v", got, want)
		}
	}
}

func TestKnownValues(t *testing.T) {
	theta := vec.Vector{1, 0}
	z := Point{X: vec.Vector{0.5, 0.5}, Y: 1}
	if got := (Squared{}).Value(theta, z); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("squared value = %v, want 0.25", got)
	}
	if got := (Hinge{}).Value(theta, z); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("hinge value = %v, want 0.5", got)
	}
	if got := (Logistic{}).Value(theta, z); math.Abs(got-math.Log1p(math.Exp(-0.5))) > 1e-12 {
		t.Fatalf("logistic value = %v", got)
	}
	// Huber: small residual is quadratic, large residual is linear.
	h := Huber{Delta: 1}
	if got := h.Value(vec.Vector{0, 0}, Point{X: vec.Vector{1, 0}, Y: 0.5}); math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("huber small-residual value = %v", got)
	}
	if got := h.Value(vec.Vector{0, 0}, Point{X: vec.Vector{1, 0}, Y: 3}); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("huber large-residual value = %v", got)
	}
}

func TestLogisticNumericalStability(t *testing.T) {
	f := Logistic{}
	theta := vec.Vector{1000}
	// Extreme margins must not produce NaN or Inf.
	for _, y := range []float64{-1, 1} {
		v := f.Value(theta, Point{X: vec.Vector{1}, Y: y})
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("logistic value unstable for y=%v: %v", y, v)
		}
		g := f.Gradient(theta, Point{X: vec.Vector{1}, Y: y})
		if !vec.IsFinite(g) {
			t.Fatalf("logistic gradient unstable for y=%v: %v", y, g)
		}
	}
}

func TestConvexityAlongSegments(t *testing.T) {
	// ℓ(λa + (1-λ)b) ≤ λℓ(a) + (1-λ)ℓ(b) for every provided loss.
	losses := append(smoothLosses(), Hinge{})
	f := func(seed int64, lamRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		lambda := float64(lamRaw) / 255
		d := 1 + r.Intn(5)
		z := randomPoint(r, d)
		a := randomTheta(r, d)
		b := randomTheta(r, d)
		mid := vec.Add(vec.Scaled(a, lambda), vec.Scaled(b, 1-lambda))
		for _, l := range losses {
			if l.Value(mid, z) > lambda*l.Value(a, z)+(1-lambda)*l.Value(b, z)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLipschitzBoundsHold(t *testing.T) {
	// Sampled gradient norms must not exceed the declared Lipschitz constants.
	r := rand.New(rand.NewSource(3))
	c := constraint.NewL2Ball(4, 1)
	losses := append(smoothLosses(), Hinge{})
	for _, f := range losses {
		lip := f.Lipschitz(c, 1, 1)
		for trial := 0; trial < 200; trial++ {
			z := randomPoint(r, 4)
			theta := randomTheta(r, 4)
			c.ProjectInto(theta, theta, nil)
			if g := vec.Norm2(f.Gradient(theta, z)); g > lip+1e-9 {
				t.Fatalf("%s: gradient norm %v exceeds Lipschitz bound %v", f.Name(), g, lip)
			}
		}
	}
}

func TestStrongConvexityReporting(t *testing.T) {
	c := constraint.NewL2Ball(3, 1)
	if (Squared{}).StrongConvexity(c, 1, 1) != 0 {
		t.Fatal("squared loss should report zero strong convexity")
	}
	reg := L2Regularized{Base: Squared{}, Lambda: 0.7}
	if got := reg.StrongConvexity(c, 1, 1); got != 0.7 {
		t.Fatalf("regularized strong convexity = %v", got)
	}
	// Strong convexity inequality spot-check for the regularized loss.
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		z := randomPoint(r, 3)
		a := randomTheta(r, 3)
		b := randomTheta(r, 3)
		lhs := reg.Value(b, z)
		rhs := reg.Value(a, z) + vec.Dot(reg.Gradient(a, z), vec.Sub(b, a)) + 0.7/2*math.Pow(vec.Dist2(a, b), 2)
		if lhs < rhs-1e-9 {
			t.Fatalf("strong convexity violated: lhs=%v rhs=%v", lhs, rhs)
		}
	}
}

func TestEmpiricalHelpers(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	data := make([]Point, 10)
	for i := range data {
		data[i] = randomPoint(r, 3)
	}
	theta := randomTheta(r, 3)
	var want float64
	g := vec.NewVector(3)
	for _, z := range data {
		want += (Squared{}).Value(theta, z)
		g.AddInPlace((Squared{}).Gradient(theta, z))
	}
	if got := Empirical(Squared{}, theta, data); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Empirical = %v, want %v", got, want)
	}
	if got := EmpiricalGradient(Squared{}, theta, data); !vec.Equal(got, g, 1e-9) {
		t.Fatalf("EmpiricalGradient = %v, want %v", got, g)
	}
	// Empty data.
	if Empirical(Squared{}, theta, nil) != 0 {
		t.Fatal("empty empirical risk should be 0")
	}
	if got := EmpiricalGradient(Squared{}, theta, nil); vec.Norm2(got) != 0 {
		t.Fatal("empty empirical gradient should be 0")
	}
}

func TestCurvatureNonNegative(t *testing.T) {
	c := constraint.NewL1Ball(5, 1)
	for _, f := range append(smoothLosses(), Hinge{}) {
		if f.Curvature(c, 1, 1) < 0 {
			t.Fatalf("%s: negative curvature constant", f.Name())
		}
	}
}

func TestNames(t *testing.T) {
	if (Squared{}).Name() != "squared" || (Logistic{}).Name() != "logistic" || (Hinge{}).Name() != "hinge" {
		t.Fatal("unexpected loss names")
	}
	if (L2Regularized{Base: Squared{}, Lambda: 1}).Name() == "" {
		t.Fatal("empty regularized name")
	}
}
