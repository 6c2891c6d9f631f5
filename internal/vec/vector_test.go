package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDotAndNorms(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, -5, 6}
	if got := Dot(v, w); got != 1*4+2*(-5)+3*6 {
		t.Fatalf("Dot = %v", got)
	}
	if got := Norm2(Vector{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm1(w); got != 15 {
		t.Fatalf("Norm1 = %v, want 15", got)
	}
	if got := NormInf(w); got != 6 {
		t.Fatalf("NormInf = %v, want 6", got)
	}
	if got := NormP(Vector{1, 1, 1, 1}, 2); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("NormP(2) = %v, want 2", got)
	}
	if got := NormP(w, 1); got != 15 {
		t.Fatalf("NormP(1) = %v, want 15", got)
	}
	if got := NormP(w, math.Inf(1)); got != 6 {
		t.Fatalf("NormP(inf) = %v, want 6", got)
	}
}

func TestNorm2OverflowSafety(t *testing.T) {
	v := Vector{1e200, 1e200}
	got := Norm2(v)
	want := 1e200 * math.Sqrt2
	if math.IsInf(got, 0) || math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("Norm2 overflow-unsafe: got %v want %v", got, want)
	}
}

func TestAddSubScaleAxpy(t *testing.T) {
	v := Vector{1, 2}
	w := Vector{3, 5}
	if got := Add(v, w); !Equal(got, Vector{4, 7}, 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(w, v); !Equal(got, Vector{2, 3}, 0) {
		t.Fatalf("Sub = %v", got)
	}
	u := v.Clone()
	u.Scale(3)
	if !Equal(u, Vector{3, 6}, 0) {
		t.Fatalf("Scale = %v", u)
	}
	a := Vector{1, 1}
	Axpy(a, 2, Vector{3, 4})
	if !Equal(a, Vector{7, 9}, 0) {
		t.Fatalf("Axpy = %v", a)
	}
	if got := Scaled(v, -1); !Equal(got, Vector{-1, -2}, 0) {
		t.Fatalf("Scaled = %v", got)
	}
	v2 := v.Clone()
	v2.AddInPlace(w)
	if !Equal(v2, Vector{4, 7}, 0) {
		t.Fatalf("AddInPlace = %v", v2)
	}
	v2.SubInPlace(w)
	if !Equal(v2, v, 1e-15) {
		t.Fatalf("SubInPlace = %v", v2)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dot(Vector{1}, Vector{1, 2})
}

func TestNormalizeAndDist(t *testing.T) {
	v := Vector{3, 4}
	n := v.Normalize()
	if !almostEqual(n, 5, 1e-12) || !almostEqual(Norm2(v), 1, 1e-12) {
		t.Fatalf("Normalize: norm=%v result=%v", n, v)
	}
	z := Vector{0, 0}
	if z.Normalize() != 0 {
		t.Fatal("Normalize of zero vector should return 0")
	}
	if got := Dist2(Vector{1, 1}, Vector{4, 5}); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Dist2 = %v", got)
	}
}

func TestSupportAndNonzero(t *testing.T) {
	v := Vector{0, 1, 0, -2, 0}
	if NumNonzero(v) != 2 {
		t.Fatalf("NumNonzero = %d", NumNonzero(v))
	}
	if Sum(v) != -1 {
		t.Fatalf("Sum = %v", Sum(v))
	}
	m, i := Max(v)
	if m != 1 || i != 1 {
		t.Fatalf("Max = %v at %d", m, i)
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite(Vector{1, 2, 3}) {
		t.Fatal("finite vector reported non-finite")
	}
	if IsFinite(Vector{1, math.NaN()}) {
		t.Fatal("NaN vector reported finite")
	}
	if IsFinite(Vector{math.Inf(1)}) {
		t.Fatal("Inf vector reported finite")
	}
}

func randomVector(rng *rand.Rand, d int) Vector {
	v := make(Vector, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// Property: the triangle inequality and Cauchy–Schwarz hold for random vectors.
func TestNormProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(20)
		v := randomVector(rng, d)
		w := randomVector(rng, d)
		if Norm2(Add(v, w)) > Norm2(v)+Norm2(w)+1e-9 {
			return false
		}
		if math.Abs(Dot(v, w)) > Norm2(v)*Norm2(w)+1e-9 {
			return false
		}
		// Norm ordering: ‖v‖_inf ≤ ‖v‖_2 ≤ ‖v‖_1.
		return NormInf(v) <= Norm2(v)+1e-9 && Norm2(v) <= Norm1(v)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Axpy agrees with Add+Scaled.
func TestAxpyProperty(t *testing.T) {
	f := func(seed int64, alpha float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e6 {
			alpha = 1
		}
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(15)
		v := randomVector(r, d)
		x := randomVector(r, d)
		want := Add(v, Scaled(x, alpha))
		got := v.Clone()
		Axpy(got, alpha, x)
		return Equal(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
