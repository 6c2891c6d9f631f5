package vec

import (
	"math"
	"testing"
)

func symTestVectors(d, n int) []Vector {
	out := make([]Vector, n)
	s := uint64(12345)
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(int64(s>>11))/float64(1<<52) - 1
	}
	for i := range out {
		v := make(Vector, d)
		for j := range v {
			v[j] = next()
		}
		out[i] = v
	}
	return out
}

func TestSymMatrixMatchesDenseOuter(t *testing.T) {
	for _, d := range []int{1, 2, 5, 8, 17} {
		sym := NewSymMatrix(d)
		dense := NewMatrix(d, d)
		xs := symTestVectors(d, 7)
		for k, x := range xs {
			alpha := 1 + 0.25*float64(k)
			sym.AddScaledOuter(alpha, x)
			dense.AddOuterInPlace(alpha, x)
		}
		back := NewMatrix(d, d)
		sym.ToDense(back)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				if math.Abs(back.At(i, j)-dense.At(i, j)) > 1e-12 {
					t.Fatalf("d=%d: sym(%d,%d)=%v dense=%v", d, i, j, back.At(i, j), dense.At(i, j))
				}
			}
		}
		var trace float64
		for i := 0; i < d; i++ {
			trace += dense.At(i, i)
		}
		if math.Abs(sym.Trace()-trace) > 1e-12 {
			t.Fatalf("d=%d: trace %v vs %v", d, sym.Trace(), trace)
		}
		// Mat-vec agrees with the dense product.
		x := symTestVectors(d, 1)[0]
		got := make(Vector, d)
		sym.MulVecTo(got, x)
		want := dense.MulVec(x)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("d=%d: MulVecTo[%d]=%v dense=%v", d, i, got[i], want[i])
			}
		}
	}
}

func TestSymMatrixCopyCloneZero(t *testing.T) {
	d := 6
	a := NewSymMatrix(d)
	xs := symTestVectors(d, 3)
	for _, x := range xs {
		a.AddScaledOuter(1, x)
	}
	c := NewSymMatrix(d)
	c.CopyFrom(a)
	if !Equal(Vector(c.Data()), Vector(a.Data()), 0) {
		t.Fatal("copy mismatch")
	}
	// The copy is independent storage.
	c.AddScaledOuter(1, xs[0])
	if c.Data()[0] == a.Data()[0] && xs[0][0] != 0 {
		t.Fatal("CopyFrom shares storage with the original")
	}
	if len(a.Data()) != d*(d+1)/2 {
		t.Fatalf("packed storage has %d entries, want %d", len(a.Data()), d*(d+1)/2)
	}
}

func TestSymMatrixMulVecDeterministic(t *testing.T) {
	d := 9
	a := NewSymMatrix(d)
	for _, x := range symTestVectors(d, 5) {
		a.AddScaledOuter(0.7, x)
	}
	x := symTestVectors(d, 1)[0]
	first := make(Vector, d)
	a.MulVecTo(first, x)
	for rep := 0; rep < 10; rep++ {
		got := make(Vector, d)
		a.MulVecTo(got, x)
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("rep %d: MulVecTo not bit-deterministic at %d", rep, i)
			}
		}
	}
}

func BenchmarkSymMatrixAddScaledOuter(b *testing.B) {
	d := 32
	a := NewSymMatrix(d)
	x := symTestVectors(d, 1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.AddScaledOuter(1, x)
	}
}
