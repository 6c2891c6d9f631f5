package erm

import (
	"encoding/binary"
	"math"
	"testing"
)

// refStats is the per-row rank-one fold MultiStats.AddRows replaced, kept as
// the bit reference: per row, A += x xᵀ over the packed upper triangle with a
// packed row skipped where its x[i] is zero, then per outcome B_i += y_i·x
// and Σy² += y_i².
type refStats struct {
	d   int
	n   int
	a   []float64
	bs  [][]float64
	yys []float64
}

func newRefStats(d, k int) *refStats {
	r := &refStats{d: d, a: make([]float64, d*(d+1)/2), bs: make([][]float64, k), yys: make([]float64, k)}
	for i := range r.bs {
		r.bs[i] = make([]float64, d)
	}
	return r
}

func (r *refStats) add(x, ys []float64) {
	r.n++
	off := 0
	for i := 0; i < r.d; i++ {
		xi := 1 * x[i]
		if xi == 0 {
			off += r.d - i
			continue
		}
		row := r.a[off : off+r.d-i]
		for k, xk := range x[i:] {
			row[k] += xi * xk
		}
		off += r.d - i
	}
	for i, y := range ys {
		for j := range r.bs[i] {
			r.bs[i][j] += y * x[j]
		}
		r.yys[i] += y * y
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkAgainstRef fails unless m holds exactly ref's bits.
func checkAgainstRef(t *testing.T, m *MultiStats, ref *refStats) {
	t.Helper()
	if m.Len() != ref.n {
		t.Fatalf("Len %d, reference %d", m.Len(), ref.n)
	}
	if !sameBits(m.Gram().Data(), ref.a) {
		t.Fatalf("Gram differs from the rank-one reference:\n got %v\nwant %v", m.Gram().Data(), ref.a)
	}
	for i := range ref.bs {
		if !sameBits(m.Moment(i), ref.bs[i]) {
			t.Fatalf("B_%d differs from the rank-one reference:\n got %v\nwant %v", i, m.Moment(i), ref.bs[i])
		}
	}
	if !sameBits(m.yys, ref.yys) {
		t.Fatalf("Σy² differs from the rank-one reference: got %v, want %v", m.yys, ref.yys)
	}
}

// foldValue draws one coordinate from a mix that keeps hitting the zero
// skip and the rounding edge cases: ±0, subnormals, values of very
// different magnitude, infinities (which make the zero skip observable:
// 0·∞ is NaN) and plain values.
func foldValue(s *uint64) float64 {
	*s = *s*6364136223846793005 + 1442695040888963407
	u := *s >> 11
	if u%61 == 0 {
		return math.Inf(1 - 2*int(u>>8&1))
	}
	switch u % 9 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(u>>12 | 1) // positive subnormal
	case 3:
		return -math.SmallestNonzeroFloat64 * float64(u%7+1)
	case 4:
		return float64(int64(u)) * 1e-30
	}
	return float64(int64(u))/float64(1<<52) - 0.5
}

// TestAddRowsMatchesRankOneReference holds the batch entry to the rank-one
// reference bit for bit, over dimensions around the four-row block, one and
// four outcomes, and batches of 0 to 9 rows per call.
func TestAddRowsMatchesRankOneReference(t *testing.T) {
	for _, d := range []int{1, 3, 4, 5, 32, 33} {
		for _, k := range []int{1, 4} {
			m, ref := NewMultiStats(d, k), newRefStats(d, k)
			s := uint64(d*10 + k)
			for call := 0; call < 30; call++ {
				rows := call % 10
				xs, ys := make([]float64, rows*d), make([]float64, rows*k)
				for i := range xs {
					xs[i] = foldValue(&s)
				}
				for i := range ys {
					ys[i] = foldValue(&s)
				}
				m.AddRows(xs, ys)
				for r := 0; r < rows; r++ {
					ref.add(xs[r*d:(r+1)*d], ys[r*k:(r+1)*k])
				}
				checkAgainstRef(t, m, ref)
			}
		}
	}
}

// TestStageMatchesRankOneReference feeds rows through a Stage with flushes
// at arbitrary points, as the mechanisms do around τ boundaries.
func TestStageMatchesRankOneReference(t *testing.T) {
	const d, k = 7, 4
	m, ref := NewMultiStats(d, k), newRefStats(d, k)
	s := uint64(5)
	st := m.Stage()
	for r := 0; r < 41; r++ {
		x, ys := st.Next()
		for i := range x {
			x[i] = foldValue(&s)
		}
		for i := range ys {
			ys[i] = foldValue(&s)
		}
		ref.add(x, ys)
		if r%7 == 3 {
			st.Flush()
			checkAgainstRef(t, m, ref)
		}
	}
	st.Release()
	checkAgainstRef(t, m, ref)
}

// FuzzFoldRows cuts a fuzzed row stream into AddRows calls at fuzzed points
// and holds the result to the rank-one reference.
func FuzzFoldRows(f *testing.F) {
	f.Add(uint8(3), uint8(2), []byte("\x00\x01\x02\x03\x04\x05\x06\x07"), []byte{3, 1, 4, 1, 5})
	f.Add(uint8(32), uint8(4), make([]byte, 700), []byte{9, 2, 6})
	f.Fuzz(func(t *testing.T, dim, outcomes uint8, data, cuts []byte) {
		d, k := int(dim%40)+1, int(outcomes%4)+1
		words := len(data) / 8
		rows := words / (d + k)
		vals := make([]float64, rows*(d+k))
		for i := range vals {
			// NaN inputs are left out: which payload a sum of two NaNs keeps
			// is the hardware's choice, not the fold order's.
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if math.IsNaN(vals[i]) {
				vals[i] = 0
			}
		}
		xs, ys := vals[:rows*d], vals[rows*d:]
		m, ref := NewMultiStats(d, k), newRefStats(d, k)
		for r := 0; r < rows; r++ {
			ref.add(xs[r*d:(r+1)*d], ys[r*k:(r+1)*k])
		}
		r := 0
		for _, c := range cuts {
			n := min(int(c%10), rows-r)
			m.AddRows(xs[r*d:(r+n)*d], ys[r*k:(r+n)*k])
			r += n
		}
		m.AddRows(xs[r*d:], ys[r*k:])
		checkAgainstRef(t, m, ref)
	})
}
