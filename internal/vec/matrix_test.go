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
	m.Set(0, 1, 7)
	if m.At(0, 1) != 7 {
		t.Fatalf("At = %v", m.At(0, 1))
	}
}

func TestMatrixFromRowsAndRowCol(t *testing.T) {
	m := NewMatrixFromRows([]Vector{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if row := Vector(m.Data()[2:4]); !Equal(row, Vector{3, 4}, 0) {
		t.Fatalf("Row(1) = %v", row)
	}
	if col := (Vector{m.At(0, 1), m.At(1, 1), m.At(2, 1)}); !Equal(col, Vector{2, 4, 6}, 0) {
		t.Fatalf("Col(1) = %v", col)
	}
}

func TestMulVecAndTranspose(t *testing.T) {
	m := NewMatrixFromRows([]Vector{{1, 2}, {3, 4}})
	x := Vector{1, 1}
	if got := m.MulVec(x); !Equal(got, Vector{3, 7}, 0) {
		t.Fatalf("MulVec = %v", got)
	}
	dst := make(Vector, 2)
	m.MulVecTTo(dst, x)
	if !Equal(dst, Vector{4, 6}, 0) {
		t.Fatalf("MulVecTTo = %v", dst)
	}
	m.MulVecTo(dst, x)
	if !Equal(dst, Vector{3, 7}, 0) {
		t.Fatalf("MulVecTo = %v", dst)
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
	if got := m.FrobeniusNorm(); math.Abs(got-math.Sqrt(1+9+9+9)) > 1e-12 {
		t.Fatalf("FrobeniusNorm = %v", got)
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

// Property: MulVecTTo(x) equals the transpose's MulVec(x), and overwrites a
// dirty destination.
func TestMulVecTMatchesTranspose(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 1+r.Intn(6), 1+r.Intn(6)
		a := NewMatrix(n, m)
		for i := range a.Data() {
			a.Data()[i] = r.NormFloat64()
		}
		at := NewMatrix(m, n)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		x := randomVector(r, n)
		got := make(Vector, m)
		got[0] = 7
		a.MulVecTTo(got, x)
		return Equal(got, at.MulVec(x), 1e-9)
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
