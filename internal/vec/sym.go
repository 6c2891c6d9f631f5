package vec

import "fmt"

// SymMatrix is a symmetric d x d matrix stored as its packed upper triangle
// (row-major, d(d+1)/2 entries). It is the storage format of the sufficient
// statistics Σ x xᵀ maintained by the amortized ERM mechanisms: a rank-one
// update touches half the entries of the dense representation and the
// checkpoint blob shrinks accordingly. All kernels run in a fixed serial
// order, so every operation is bit-deterministic.
type SymMatrix struct {
	d    int
	data []float64
}

// NewSymMatrix returns the zero symmetric matrix of dimension d.
func NewSymMatrix(d int) *SymMatrix {
	if d < 0 {
		panic("vec: negative matrix dimension")
	}
	return &SymMatrix{d: d, data: make([]float64, d*(d+1)/2)}
}

// Dim returns the dimension d.
func (s *SymMatrix) Dim() int { return s.d }

// index returns the packed offset of entry (i, j) with i <= j.
func (s *SymMatrix) index(i, j int) int {
	return i*s.d - i*(i-1)/2 + (j - i)
}

// At returns the entry at row i, column j.
func (s *SymMatrix) At(i, j int) float64 {
	if i < 0 || i >= s.d || j < 0 || j >= s.d {
		panic(fmt.Sprintf("vec: index (%d,%d) out of range for %dx%d symmetric matrix", i, j, s.d, s.d))
	}
	if i > j {
		i, j = j, i
	}
	return s.data[s.index(i, j)]
}

// Data returns the packed upper-triangle storage. Callers must treat the
// returned slice as read-only unless they own the matrix.
func (s *SymMatrix) Data() []float64 { return s.data }

// Zero sets every entry to zero.
func (s *SymMatrix) Zero() {
	for i := range s.data {
		s.data[i] = 0
	}
}

// CopyFrom copies src into s. Dimensions must match.
func (s *SymMatrix) CopyFrom(src *SymMatrix) {
	if s.d != src.d {
		panic("vec: SymMatrix CopyFrom dimension mismatch")
	}
	copy(s.data, src.data)
}

// Clone returns a deep copy of s.
func (s *SymMatrix) Clone() *SymMatrix {
	out := NewSymMatrix(s.d)
	copy(out.data, s.data)
	return out
}

// AddScaledOuter adds the rank-one update alpha * x xᵀ to s, touching only the
// packed upper triangle (d(d+1)/2 multiply-adds). Rows whose scaled entry is
// zero are skipped, as Matrix.AddOuterInPlace skips them, so the packed and
// dense accumulations agree entry for entry and sparse rows stay cheap.
func (s *SymMatrix) AddScaledOuter(alpha float64, x Vector) {
	if len(x) != s.d {
		panic(dimErr("SymMatrix.AddScaledOuter", s.d, len(x)))
	}
	off := 0
	for i := 0; i < s.d; i++ {
		xi := alpha * x[i]
		if xi == 0 {
			off += s.d - i
			continue
		}
		row := s.data[off : off+s.d-i]
		tail := x[i:]
		for k, xk := range tail {
			row[k] += xi * xk
		}
		off += s.d - i
	}
}

// MulVecTo computes dst = s * x without allocating. dst must have dimension d
// and must not alias x. The accumulation order is fixed (rows of the packed
// triangle in order, diagonal first), so the result is bit-deterministic.
func (s *SymMatrix) MulVecTo(dst, x Vector) {
	if len(x) != s.d {
		panic(dimErr("SymMatrix.MulVecTo", s.d, len(x)))
	}
	if len(dst) != s.d {
		panic(dimErr("SymMatrix.MulVecTo dst", s.d, len(dst)))
	}
	for i := range dst {
		dst[i] = 0
	}
	off := 0
	for i := 0; i < s.d; i++ {
		xi := x[i]
		dst[i] += s.data[off] * xi
		row := s.data[off+1 : off+s.d-i]
		for k, v := range row {
			j := i + 1 + k
			dst[i] += v * x[j]
			dst[j] += v * xi
		}
		off += s.d - i
	}
}

// Trace returns the trace of s.
func (s *SymMatrix) Trace() float64 {
	var t float64
	off := 0
	for i := 0; i < s.d; i++ {
		t += s.data[off]
		off += s.d - i
	}
	return t
}

// ToDense writes the full d x d symmetric matrix into dst.
func (s *SymMatrix) ToDense(dst *Matrix) {
	if dst.Rows() != s.d || dst.Cols() != s.d {
		panic("vec: SymMatrix.ToDense shape mismatch")
	}
	off := 0
	for i := 0; i < s.d; i++ {
		for j := i; j < s.d; j++ {
			v := s.data[off]
			dst.Set(i, j, v)
			if i != j {
				dst.Set(j, i, v)
			}
			off++
		}
	}
}
