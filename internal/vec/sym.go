package vec

// SymMatrix is a symmetric d x d matrix stored as its packed upper triangle
// (row-major, d(d+1)/2 entries). It is the storage format of the sufficient
// statistics Σ x xᵀ maintained by the amortized ERM mechanisms: folding rows
// in touches half the entries of the dense representation and the
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

// Data returns the packed upper-triangle storage. Callers must treat the
// returned slice as read-only unless they own the matrix.
func (s *SymMatrix) Data() []float64 { return s.data }

// CopyFrom copies src into s. Dimensions must match.
func (s *SymMatrix) CopyFrom(src *SymMatrix) {
	if s.d != src.d {
		panic("vec: SymMatrix CopyFrom dimension mismatch")
	}
	copy(s.data, src.data)
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
		addScaledRow(s.data[off:off+s.d-i], alpha*x[i], x[i:])
		off += s.d - i
	}
}

// AddOuters adds x xᵀ for each row x of xs (row-major, len(xs)/d rows of d
// values) to s, leaving every entry bit-identical to one AddScaledOuter(1, x)
// per row in row order. Rows go four at a time: each packed entry is loaded
// once and takes the four products in row order, v = e + a0·t0; v += a1·t1;
// v += a2·t2; v += a3·t3, which is exactly the order of four rank-one
// updates. A packed row where any of the four scaled entries is zero runs
// the rank-one loop instead, so the zero skip is kept row by row. A
// remainder of one to three rows folds by AddScaledOuter.
func (s *SymMatrix) AddOuters(xs []float64) {
	d := s.d
	if d == 0 {
		return
	}
	if len(xs)%d != 0 {
		panic(dimErr("SymMatrix.AddOuters", d, len(xs)%d))
	}
	r := 0
	for ; r+4 <= len(xs)/d; r += 4 {
		s.addOuters4(xs[r*d:(r+1)*d], xs[(r+1)*d:(r+2)*d], xs[(r+2)*d:(r+3)*d], xs[(r+3)*d:(r+4)*d])
	}
	for ; r < len(xs)/d; r++ {
		s.AddScaledOuter(1, xs[r*d:(r+1)*d])
	}
}

// addOuters4 adds x0x0ᵀ + x1x1ᵀ + x2x2ᵀ + x3x3ᵀ to s, entry by entry in the
// order of the four rank-one updates (see AddOuters).
func (s *SymMatrix) addOuters4(x0, x1, x2, x3 Vector) {
	d := s.d
	off := 0
	for i := 0; i < d; i++ {
		row := s.data[off : off+d-i]
		off += d - i
		a0, a1, a2, a3 := x0[i], x1[i], x2[i], x3[i]
		if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
			addScaledRow(row, a0, x0[i:])
			addScaledRow(row, a1, x1[i:])
			addScaledRow(row, a2, x2[i:])
			addScaledRow(row, a3, x3[i:])
			continue
		}
		t0, t1, t2, t3 := x0[i:d], x1[i:d], x2[i:d], x3[i:d]
		t0, t1, t2, t3 = t0[:len(row)], t1[:len(row)], t2[:len(row)], t3[:len(row)]
		for k := range row {
			v := row[k] + a0*t0[k]
			v += a1 * t1[k]
			v += a2 * t2[k]
			v += a3 * t3[k]
			row[k] = v
		}
	}
}

// addScaledRow adds xi·tail to one packed row unless xi is zero: the inner
// loop of AddScaledOuter.
func addScaledRow(row []float64, xi float64, tail Vector) {
	if xi == 0 {
		return
	}
	tail = tail[:len(row)]
	for k, xk := range tail {
		row[k] += xi * xk
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
	d, a := s.d, dst.data
	off := 0
	for i := 0; i < d; i++ {
		row := s.data[off : off+d-i]
		copy(a[i*d+i:(i+1)*d], row)
		for k, v := range row[1:] {
			a[(i+1+k)*d+i] = v
		}
		off += d - i
	}
}
