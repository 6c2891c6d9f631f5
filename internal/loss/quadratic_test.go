package loss

import (
	"runtime"
	"testing"

	"privreg/internal/vec"
)

func quadTestData(d, n int, seed uint64) []Point {
	s := seed
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(int64(s>>11))/float64(1<<52) - 1
	}
	out := make([]Point, n)
	for i := range out {
		x := make(vec.Vector, d)
		for j := range x {
			x[j] = next() * 0.5
		}
		out[i] = Point{X: x, Y: next()}
	}
	return out
}

func TestAsQuadraticUnwrapping(t *testing.T) {
	if s, r, ok := AsQuadratic(Squared{}); !ok || s != 1 || r != 0 {
		t.Fatalf("Squared: (%v, %v, %v)", s, r, ok)
	}
	if s, r, ok := AsQuadratic(L2Regularized{Base: Squared{}, Lambda: 0.25}); !ok || s != 1 || r != 0.25 {
		t.Fatalf("ridge: (%v, %v, %v)", s, r, ok)
	}
	nested := L2Regularized{Base: L2Regularized{Base: Squared{}, Lambda: 0.25}, Lambda: 0.5}
	if s, r, ok := AsQuadratic(nested); !ok || s != 1 || r != 0.75 {
		t.Fatalf("nested ridge: (%v, %v, %v)", s, r, ok)
	}
	for _, f := range []Function{Logistic{}, Hinge{}, L2Regularized{Base: Logistic{}, Lambda: 0.1}} {
		if _, _, ok := AsQuadratic(f); ok {
			t.Fatalf("%s should not be quadratic", f.Name())
		}
	}
}

func TestQuadraticFormMatchesValueAndGradient(t *testing.T) {
	d := 5
	data := quadTestData(d, 20, 7)
	theta := quadTestData(d, 1, 9)[0].X
	for _, f := range []Function{Squared{}, L2Regularized{Base: Squared{}, Lambda: 0.3}} {
		scale, ridge, ok := AsQuadratic(f)
		if !ok {
			t.Fatalf("%s not quadratic", f.Name())
		}
		nt := vec.Norm2(theta)
		for _, z := range data {
			r := z.Y - vec.Dot(z.X, theta)
			want := scale*r*r + ridge/2*nt*nt
			if got := f.Value(theta, z); !close64(got, want, 1e-12) {
				t.Fatalf("%s value %v, quadratic form %v", f.Name(), got, want)
			}
		}
	}
}

func close64(a, b, tol float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	return diff <= tol
}

func TestAccumGradientMatchesGradient(t *testing.T) {
	d := 6
	data := quadTestData(d, 40, 11)
	theta := quadTestData(d, 1, 3)[0].X
	type lossCase struct {
		f Function
		// bitwise: the simple losses perform the identical operations as the
		// Gradient path; L2Regularized accumulates term-by-term (same sum,
		// different association), so it is compared with a tolerance.
		bitwise bool
	}
	losses := []lossCase{
		{Squared{}, true},
		{Logistic{}, true},
		{Hinge{}, true},
		{L2Regularized{Base: Squared{}, Lambda: 0.2}, false},
		{L2Regularized{Base: Logistic{}, Lambda: 0.2}, false},
	}
	for _, tc := range losses {
		f := tc.f
		acc, ok := f.(GradientAccumulator)
		if !ok {
			t.Fatalf("%s does not implement GradientAccumulator", f.Name())
		}
		got := vec.NewVector(d)
		want := vec.NewVector(d)
		for _, z := range data {
			acc.AccumGradient(got, theta, z)
			want.AddInPlace(f.Gradient(theta, z))
		}
		for i := range got {
			if tc.bitwise {
				if got[i] != want[i] {
					t.Fatalf("%s: AccumGradient[%d]=%v, Gradient path %v", f.Name(), i, got[i], want[i])
				}
			} else if !close64(got[i], want[i], 1e-12*(1+absf(want[i]))) {
				t.Fatalf("%s: AccumGradient[%d]=%v far from Gradient path %v", f.Name(), i, got[i], want[i])
			}
		}
	}
}

func TestEmpiricalGradientIntoDeterministicAcrossGOMAXPROCS(t *testing.T) {
	d := 8
	// Long enough to cross both the chunk size and the parallel threshold.
	data := quadTestData(d, 3*gradientParallelMin/2, 13)
	theta := quadTestData(d, 1, 5)[0].X
	for _, f := range []Function{Squared{}, Logistic{}} {
		prev := runtime.GOMAXPROCS(0)
		serial := vec.NewVector(d)
		runtime.GOMAXPROCS(1)
		EmpiricalGradientInto(f, serial, theta, data)
		parallel := vec.NewVector(d)
		runtime.GOMAXPROCS(4)
		EmpiricalGradientInto(f, parallel, theta, data)
		runtime.GOMAXPROCS(prev)
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("%s: gradient differs between GOMAXPROCS=1 and 4 at %d: %v vs %v",
					f.Name(), i, serial[i], parallel[i])
			}
		}
		// And it approximates the simple accumulation closely (different
		// summation order, so approximate, not bitwise).
		ref := EmpiricalGradient(f, theta, data)
		for i := range serial {
			if !close64(serial[i], ref[i], 1e-9*(1+absf(ref[i]))) {
				t.Fatalf("%s: chunked gradient far from reference at %d: %v vs %v",
					f.Name(), i, serial[i], ref[i])
			}
		}
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestEmpiricalGradientIntoSmallAndEmpty(t *testing.T) {
	d := 4
	theta := quadTestData(d, 1, 5)[0].X
	dst := vec.NewVector(d)
	dst.Fill(3)
	EmpiricalGradientInto(Squared{}, dst, theta, nil)
	for i := range dst {
		if dst[i] != 0 {
			t.Fatal("empty dataset should zero dst")
		}
	}
	data := quadTestData(d, 10, 21)
	EmpiricalGradientInto(Squared{}, dst, theta, data)
	ref := EmpiricalGradient(Squared{}, theta, data)
	for i := range dst {
		if dst[i] != ref[i] {
			// A single chunk accumulates in exactly the reference order.
			t.Fatalf("single-chunk gradient should be bit-identical: %v vs %v", dst[i], ref[i])
		}
	}
}
