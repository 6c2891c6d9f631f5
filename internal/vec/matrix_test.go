package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(0, 1, 5)
	m.Incr(0, 1, 2)
	if m.At(0, 1) != 7 {
		t.Fatalf("At = %v", m.At(0, 1))
	}
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(%d,%d) = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestMatrixFromRowsAndRowCol(t *testing.T) {
	m := NewMatrixFromRows([]Vector{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if !Equal(m.Row(1), Vector{3, 4}, 0) {
		t.Fatalf("Row(1) = %v", m.Row(1))
	}
	if !Equal(m.Col(1), Vector{2, 4, 6}, 0) {
		t.Fatalf("Col(1) = %v", m.Col(1))
	}
}

func TestMulVecAndTranspose(t *testing.T) {
	m := NewMatrixFromRows([]Vector{{1, 2}, {3, 4}})
	x := Vector{1, 1}
	if got := m.MulVec(x); !Equal(got, Vector{3, 7}, 0) {
		t.Fatalf("MulVec = %v", got)
	}
	if got := m.MulVecT(x); !Equal(got, Vector{4, 6}, 0) {
		t.Fatalf("MulVecT = %v", got)
	}
	dst := make(Vector, 2)
	m.MulVecTo(dst, x)
	if !Equal(dst, Vector{3, 7}, 0) {
		t.Fatalf("MulVecTo = %v", dst)
	}
	tr := m.Transpose()
	if tr.At(0, 1) != 3 || tr.At(1, 0) != 2 {
		t.Fatalf("Transpose wrong: %v", tr)
	}
}

func TestMatMulAgainstManual(t *testing.T) {
	a := NewMatrixFromRows([]Vector{{1, 2, 0}, {0, 1, -1}})
	b := NewMatrixFromRows([]Vector{{1, 0}, {2, 1}, {3, 3}})
	c := a.Mul(b)
	want := NewMatrixFromRows([]Vector{{5, 2}, {-1, -2}})
	if !c.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", c, want)
	}
}

func TestOuterAndAddOuter(t *testing.T) {
	x := Vector{1, 2}
	y := Vector{3, 4, 5}
	o := Outer(x, y)
	if o.At(1, 2) != 10 || o.At(0, 0) != 3 {
		t.Fatalf("Outer wrong: %v", o)
	}
	m := NewMatrix(2, 2)
	m.AddOuterInPlace(2, x)
	if m.At(0, 0) != 2 || m.At(1, 1) != 8 || m.At(0, 1) != 4 {
		t.Fatalf("AddOuterInPlace wrong: %v", m)
	}
}

func TestTraceNorms(t *testing.T) {
	m := NewMatrixFromRows([]Vector{{1, 3}, {3, 3}})
	if m.Trace() != 4 {
		t.Fatalf("Trace = %v", m.Trace())
	}
	if got := m.FrobeniusNorm(); math.Abs(got-math.Sqrt(1+9+9+9)) > 1e-12 {
		t.Fatalf("FrobeniusNorm = %v", got)
	}
	if m.MaxAbs() != 3 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

func TestSpectralNormEstimates(t *testing.T) {
	// diag(3, 1) has spectral norm 3.
	m := NewMatrixFromRows([]Vector{{3, 0}, {0, 1}})
	upper := m.SpectralNormUpperBound()
	if upper < 3-1e-9 {
		t.Fatalf("upper bound %v below true value 3", upper)
	}
	est := m.PowerIterationSpectralNorm(50, Vector{1, 1}, nil)
	if math.Abs(est-3) > 1e-6 {
		t.Fatalf("power iteration = %v, want 3", est)
	}
	if est > upper+1e-9 {
		t.Fatalf("power iteration %v exceeds upper bound %v", est, upper)
	}
}

// Property: (A B) x == A (B x) for random matrices.
func TestMulAssociativityWithVector(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k, m := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := NewMatrix(n, k)
		b := NewMatrix(k, m)
		for i := range a.Data() {
			a.Data()[i] = r.NormFloat64()
		}
		for i := range b.Data() {
			b.Data()[i] = r.NormFloat64()
		}
		x := randomVector(r, m)
		left := a.Mul(b).MulVec(x)
		right := a.MulVec(b.MulVec(x))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: MulVecT(x) equals Transpose().MulVec(x).
func TestMulVecTMatchesTranspose(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 1+r.Intn(6), 1+r.Intn(6)
		a := NewMatrix(n, m)
		for i := range a.Data() {
			a.Data()[i] = r.NormFloat64()
		}
		x := randomVector(r, n)
		return Equal(a.MulVecT(x), a.Transpose().MulVec(x), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelMulVecMatchesSerial checks that the goroutine-parallel MulVec
// path (triggered above the size threshold) is bit-identical to the serial
// row loop.
func TestParallelMulVecMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	rows, cols := 300, 300 // rows*cols above mulVecParallelMin
	if rows*cols < mulVecParallelMin {
		t.Fatalf("test matrix too small to exercise the parallel path")
	}
	a := NewMatrix(rows, cols)
	for i := range a.Data() {
		a.Data()[i] = r.NormFloat64()
	}
	x := randomVector(r, cols)
	got := a.MulVec(x)
	want := make(Vector, rows)
	a.mulVecRows(want, x, 0, rows)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parallel MulVec differs from serial at row %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestMulToAndTransposeTo checks the in-place variants against their
// allocating counterparts, including reuse of a dirty destination.
func TestMulToAndTransposeTo(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	a := NewMatrix(4, 6)
	b := NewMatrix(6, 3)
	for i := range a.Data() {
		a.Data()[i] = r.NormFloat64()
	}
	for i := range b.Data() {
		b.Data()[i] = r.NormFloat64()
	}
	dst := NewMatrix(4, 3)
	dst.Data()[0] = 99 // dirty destination must be overwritten
	a.MulTo(dst, b)
	if !dst.Equal(a.Mul(b), 1e-12) {
		t.Fatal("MulTo differs from Mul")
	}
	tr := NewMatrix(6, 4)
	a.TransposeTo(tr)
	if !tr.Equal(a.Transpose(), 1e-12) {
		t.Fatal("TransposeTo differs from Transpose")
	}
	// MulVecTTo must match MulVecT on a dirty destination.
	x := randomVector(r, 4)
	out := make(Vector, 6)
	out[2] = 7
	a.MulVecTTo(out, x)
	if !Equal(out, a.MulVecT(x), 1e-12) {
		t.Fatal("MulVecTTo differs from MulVecT")
	}
}

// TestParallelMulMatchesSerial checks the row-parallel matrix product above
// the flops threshold.
func TestParallelMulMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	n := 160 // n^3 above mulParallelMin
	if n*n*n < mulParallelMin {
		t.Fatalf("test matrices too small to exercise the parallel path")
	}
	a := NewMatrix(n, n)
	b := NewMatrix(n, n)
	for i := range a.Data() {
		a.Data()[i] = r.NormFloat64()
	}
	for i := range b.Data() {
		b.Data()[i] = r.NormFloat64()
	}
	got := a.Mul(b)
	want := NewMatrix(n, n)
	a.mulRows(want, b, 0, n)
	if !got.Equal(want, 0) {
		t.Fatal("parallel Mul differs from serial")
	}
}
