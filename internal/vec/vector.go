// Package vec provides the small dense linear-algebra substrate used throughout
// the private incremental regression library: vectors, dense matrices,
// factorizations (Cholesky, QR), and least-squares solvers.
//
// The package deliberately keeps a tiny, allocation-aware surface: everything is
// backed by []float64 slices, operations state clearly whether they allocate, and
// mutating operations take the receiver as the destination. It is not a general
// purpose BLAS; it implements exactly what the mechanisms in internal/core and the
// batch solvers in internal/erm need, with careful handling of degenerate inputs.
package vec

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned (or wrapped) whenever two operands have
// incompatible dimensions.
var ErrDimensionMismatch = errors.New("vec: dimension mismatch")

// Vector is a dense column vector of float64 values.
type Vector []float64

// NewVector returns a zero vector of dimension d.
func NewVector(d int) Vector {
	if d < 0 {
		panic("vec: negative dimension")
	}
	return make(Vector, d)
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dim returns the dimension (length) of v.
func (v Vector) Dim() int { return len(v) }

// CopyFrom copies src into v. The dimensions must match.
func (v Vector) CopyFrom(src Vector) {
	if len(v) != len(src) {
		panic(dimErr("CopyFrom", len(v), len(src)))
	}
	copy(v, src)
}

// Zero sets every entry of v to zero.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every entry of v to c.
func (v Vector) Fill(c float64) {
	for i := range v {
		v[i] = c
	}
}

// Dot returns the inner product <v, w>.
func Dot(v, w Vector) float64 {
	if len(v) != len(w) {
		panic(dimErr("Dot", len(v), len(w)))
	}
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean (L2) norm of v. It guards against overflow for
// large entries by scaling, matching the behaviour of the classical dnrm2 kernel.
func Norm2(v Vector) float64 {
	var scale, ssq float64
	ssq = 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Norm1 returns the L1 norm of v.
func Norm1(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// NormInf returns the L-infinity norm of v.
func NormInf(v Vector) float64 {
	var s float64
	for _, x := range v {
		if a := math.Abs(x); a > s {
			s = a
		}
	}
	return s
}

// NormP returns the Lp norm of v for p >= 1. For p = +Inf it returns NormInf(v).
func NormP(v Vector, p float64) float64 {
	if p < 1 {
		panic("vec: NormP requires p >= 1")
	}
	if math.IsInf(p, 1) {
		return NormInf(v)
	}
	if p == 1 {
		return Norm1(v)
	}
	if p == 2 {
		return Norm2(v)
	}
	var s float64
	for _, x := range v {
		s += math.Pow(math.Abs(x), p)
	}
	return math.Pow(s, 1/p)
}

// Scale multiplies every entry of v in place by c.
func (v Vector) Scale(c float64) {
	for i := range v {
		v[i] *= c
	}
}

// Scaled returns a new vector equal to c*v.
func Scaled(v Vector, c float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// Add returns the new vector v + w.
func Add(v, w Vector) Vector {
	if len(v) != len(w) {
		panic(dimErr("Add", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns the new vector v - w.
func Sub(v, w Vector) Vector {
	if len(v) != len(w) {
		panic(dimErr("Sub", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// AddInPlace sets v = v + w.
func (v Vector) AddInPlace(w Vector) {
	if len(v) != len(w) {
		panic(dimErr("AddInPlace", len(v), len(w)))
	}
	for i := range v {
		v[i] += w[i]
	}
}

// SubInPlace sets v = v - w.
func (v Vector) SubInPlace(w Vector) {
	if len(v) != len(w) {
		panic(dimErr("SubInPlace", len(v), len(w)))
	}
	for i := range v {
		v[i] -= w[i]
	}
}

// Axpy sets dst = dst + alpha*x. dst and x must have the same dimension.
func Axpy(dst Vector, alpha float64, x Vector) {
	if len(dst) != len(x) {
		panic(dimErr("Axpy", len(dst), len(x)))
	}
	for i := range dst {
		dst[i] += alpha * x[i]
	}
}

// Dist2 returns the Euclidean distance between v and w.
func Dist2(v, w Vector) float64 {
	if len(v) != len(w) {
		panic(dimErr("Dist2", len(v), len(w)))
	}
	var scale, ssq float64
	ssq = 1
	for i := range v {
		x := v[i] - w[i]
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Normalize scales v in place to unit Euclidean norm and returns the original
// norm. A zero vector is left unchanged and 0 is returned.
func (v Vector) Normalize() float64 {
	n := Norm2(v)
	if n == 0 {
		return 0
	}
	v.Scale(1 / n)
	return n
}

// Equal reports whether v and w have the same dimension and all entries are
// within tol of each other.
func Equal(v, w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every entry of v is finite (neither NaN nor ±Inf).
func IsFinite(v Vector) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Sum returns the sum of the entries of v.
func Sum(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Max returns the maximum entry of v and its index. It panics on an empty vector.
func Max(v Vector) (float64, int) {
	if len(v) == 0 {
		panic("vec: Max of empty vector")
	}
	best, bi := v[0], 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return best, bi
}

// NumNonzero returns the number of nonzero entries of v.
func NumNonzero(v Vector) int {
	n := 0
	for _, x := range v {
		if x != 0 {
			n++
		}
	}
	return n
}

func dimErr(op string, a, b int) string {
	return fmt.Sprintf("vec: %s: %v (%d vs %d)", op, ErrDimensionMismatch, a, b)
}
