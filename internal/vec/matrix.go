package vec

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("vec: negative matrix dimension")
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// MatrixOver returns a rows x cols matrix whose storage is data (row-major,
// rows·cols values), without copying: a view over a borrowed buffer.
func MatrixOver(rows, cols int, data []float64) *Matrix {
	if rows < 0 || cols < 0 || len(data) != rows*cols {
		panic("vec: MatrixOver shape mismatch")
	}
	return &Matrix{rows: rows, cols: cols, data: data}
}

// NewMatrixFromRows builds a matrix whose rows are copies of the given vectors.
// All rows must have the same dimension.
func NewMatrixFromRows(rows []Vector) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	d := len(rows[0])
	m := NewMatrix(len(rows), d)
	for i, r := range rows {
		if len(r) != d {
			panic(dimErr("NewMatrixFromRows", d, len(r)))
		}
		copy(m.data[i*d:(i+1)*d], r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the entry at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the entry at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("vec: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Data returns the underlying row-major storage of m. Callers must treat the
// returned slice as read-only unless they own the matrix.
func (m *Matrix) Data() []float64 { return m.data }

// SubInPlace sets m = m - b. Shapes must match.
func (m *Matrix) SubInPlace(b *Matrix) {
	if m.rows != b.rows || m.cols != b.cols {
		panic("vec: SubInPlace shape mismatch")
	}
	for i := range m.data {
		m.data[i] -= b.data[i]
	}
}

// MulVec returns m * x as a new vector of dimension Rows().
func (m *Matrix) MulVec(x Vector) Vector {
	if m.cols != len(x) {
		panic(dimErr("MulVec", m.cols, len(x)))
	}
	out := make(Vector, m.rows)
	m.MulVecTo(out, x)
	return out
}

// MulVecTo computes dst = m * x without allocating. dst must have dimension
// Rows(). Large products are computed on multiple goroutines; the result is
// bit-identical to the serial evaluation (each destination row is an
// independent fixed-order accumulation).
func (m *Matrix) MulVecTo(dst, x Vector) {
	if m.cols != len(x) {
		panic(dimErr("MulVecTo", m.cols, len(x)))
	}
	if len(dst) != m.rows {
		panic(dimErr("MulVecTo dst", len(dst), m.rows))
	}
	if m.rows*m.cols >= mulVecParallelMin {
		parallelRows(m.rows, func(lo, hi int) { m.mulVecRows(dst, x, lo, hi) })
		return
	}
	m.mulVecRows(dst, x, 0, m.rows)
}

// MulVecTTo computes dst = mᵀ * x without allocating. dst must have dimension
// Cols().
func (m *Matrix) MulVecTTo(dst, x Vector) {
	if m.rows != len(x) {
		panic(dimErr("MulVecT", m.rows, len(x)))
	}
	if len(dst) != m.cols {
		panic(dimErr("MulVecTTo dst", len(dst), m.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			dst[j] += v * xi
		}
	}
}

// AddOuterInPlace adds the rank-one update alpha * x xᵀ to the square matrix m.
// The matrix must be Dim(x) x Dim(x).
func (m *Matrix) AddOuterInPlace(alpha float64, x Vector) {
	if m.rows != len(x) || m.cols != len(x) {
		panic("vec: AddOuterInPlace requires a d x d matrix for a d-vector")
	}
	for i := 0; i < m.rows; i++ {
		xi := alpha * x[i]
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j := range row {
			row[j] += xi * x[j]
		}
	}
}

// Outer returns the outer product x yᵀ as a new len(x) x len(y) matrix.
func Outer(x, y Vector) *Matrix {
	out := NewMatrix(len(x), len(y))
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := out.data[i*out.cols : (i+1)*out.cols]
		for j, yj := range y {
			row[j] = xi * yj
		}
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	return Norm2(Vector(m.data))
}

// SpectralNormUpperBound returns an inexpensive upper bound on the spectral norm
// of m, namely min(sqrt(‖m‖_1 ‖m‖_inf), ‖m‖_F). It is used to bound step sizes.
func (m *Matrix) SpectralNormUpperBound() float64 {
	// ‖m‖_inf: max row sum of absolute values.
	var rowMax float64
	for i := 0; i < m.rows; i++ {
		var s float64
		for _, v := range m.data[i*m.cols : (i+1)*m.cols] {
			s += math.Abs(v)
		}
		if s > rowMax {
			rowMax = s
		}
	}
	// ‖m‖_1: max column sum of absolute values.
	colSums := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		for j, v := range m.data[i*m.cols : (i+1)*m.cols] {
			colSums[j] += math.Abs(v)
		}
	}
	var colMax float64
	for _, s := range colSums {
		if s > colMax {
			colMax = s
		}
	}
	holder := math.Sqrt(rowMax * colMax)
	fro := m.FrobeniusNorm()
	if fro < holder {
		return fro
	}
	return holder
}

// PowerIterationSpectralNorm estimates the spectral norm (largest singular value)
// of m by running iters rounds of power iteration on mᵀm. v (length Cols)
// holds the start vector and is overwritten by the iterates; u (length Rows)
// is scratch. Callers on a hot path pass buffers they hold; either may be nil
// and is then allocated, a nil v starting from the deterministic all-ones
// vector (as does a zero v). The estimate is a lower bound that converges to
// the true value as iters grows.
func (m *Matrix) PowerIterationSpectralNorm(iters int, v, u Vector) float64 {
	if m.cols == 0 || m.rows == 0 {
		return 0
	}
	if v == nil {
		v = make(Vector, m.cols)
		v.Fill(1)
	}
	if u == nil {
		u = make(Vector, m.rows)
	}
	if v.Normalize() == 0 {
		v.Fill(1)
		v.Normalize()
	}
	var sigma float64
	for k := 0; k < iters; k++ {
		m.MulVecTo(u, v)
		sigma = Norm2(u)
		if sigma == 0 {
			return 0
		}
		m.MulVecTTo(v, u)
		if v.Normalize() == 0 {
			return sigma
		}
	}
	return sigma
}

// String renders a small matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d", m.rows, m.cols)
	if m.rows*m.cols <= 64 {
		s += " ["
		for i := 0; i < m.rows; i++ {
			if i > 0 {
				s += "; "
			}
			for j := 0; j < m.cols; j++ {
				if j > 0 {
					s += " "
				}
				s += fmt.Sprintf("%.4g", m.At(i, j))
			}
		}
		s += "]"
	}
	return s
}
