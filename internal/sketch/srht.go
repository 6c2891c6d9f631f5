package sketch

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"privreg/internal/constraint"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// SRHT is a subsampled randomized Hadamard transform Φ: R^d → R^m,
//
//	Φ = √(p/m) · R · (H/√p) · D,
//
// where p is d padded to the next power of two, D is a diagonal matrix of
// i.i.d. Rademacher signs, H/√p is the orthonormal Walsh–Hadamard matrix, and
// R selects m of the p rotated coordinates uniformly without replacement. The
// overall scaling makes E‖Φx‖² = ‖x‖², the same normalization as the dense
// Gaussian projector, and the sign-flipped Hadamard rotation spreads any fixed
// vector's energy evenly across coordinates so the subsample preserves norms
// to within (1±γ) with high probability — the JL property, at O(d log d) per
// apply instead of the dense projector's O(m·d).
//
// The *To methods share an internal scratch buffer of length p and must not be
// invoked concurrently on the same instance.
type SRHT struct {
	m, d, dpad int
	// signs holds the d Rademacher entries of D (the padded coordinates are
	// always zero, so their signs are never needed).
	signs []float64
	// rows holds the m sampled coordinates, sorted for cache-friendly gathers.
	rows []int
	// scale is √(p/m)/√p = 1/√m, folded into the gather/scatter loops.
	scale float64
	// specUpper bounds ‖Φ‖: R·(H/√p)·D is a row-submatrix of an orthogonal
	// matrix, so ‖Φ‖ ≤ √(p/m) exactly.
	specUpper float64
	scratch   vec.Vector
}

// NewSRHT samples an SRHT mapping R^d → R^m: d Rademacher signs and a uniform
// m-subset of the p padded coordinates, consuming randomness from src.
func NewSRHT(m, d int, src *randx.Source) (*SRHT, error) {
	if m <= 0 || d <= 0 {
		return nil, fmt.Errorf("sketch: projection dimensions must be positive, got m=%d d=%d", m, d)
	}
	if src == nil {
		return nil, errors.New("sketch: nil randomness source")
	}
	dpad := nextPow2(d)
	if m > dpad {
		return nil, fmt.Errorf("sketch: SRHT output dimension m=%d exceeds padded input dimension %d", m, dpad)
	}
	signs := make([]float64, d)
	for i := range signs {
		signs[i] = src.Rademacher()
	}
	rows := append([]int(nil), src.Perm(dpad)[:m]...)
	sort.Ints(rows)
	return &SRHT{
		m:         m,
		d:         d,
		dpad:      dpad,
		signs:     signs,
		rows:      rows,
		scale:     1 / math.Sqrt(float64(m)),
		specUpper: math.Sqrt(float64(dpad) / float64(m)),
		scratch:   vec.NewVector(dpad),
	}, nil
}

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// fwht applies the unnormalized fast Walsh–Hadamard transform in place.
// len(a) must be a power of two; the cost is len(a)·log₂len(a) additions.
func fwht(a []float64) {
	n := len(a)
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				x, y := a[j], a[j+h]
				a[j] = x + y
				a[j+h] = x - y
			}
		}
	}
}

// InputDim returns the ambient dimension d.
func (s *SRHT) InputDim() int { return s.d }

// OutputDim returns the projected dimension m.
func (s *SRHT) OutputDim() int { return s.m }

// SpectralUpper returns the exact bound √(p/m) on ‖Φ‖.
func (s *SRHT) SpectralUpper() float64 { return s.specUpper }

// Apply returns Φx as a new vector.
func (s *SRHT) Apply(x vec.Vector) vec.Vector {
	out := vec.NewVector(s.m)
	s.ApplyTo(out, x)
	return out
}

// ApplyTo computes dst = Φx in O(p log p) time with no heap allocation.
func (s *SRHT) ApplyTo(dst, x vec.Vector) {
	if len(x) != s.d {
		panic(fmt.Sprintf("sketch: SRHT apply dimension %d, want %d", len(x), s.d))
	}
	if len(dst) != s.m {
		panic(fmt.Sprintf("sketch: SRHT apply destination dimension %d, want %d", len(dst), s.m))
	}
	w := s.scratch
	for i, sg := range s.signs {
		w[i] = sg * x[i]
	}
	for i := s.d; i < s.dpad; i++ {
		w[i] = 0
	}
	fwht(w)
	for j, r := range s.rows {
		dst[j] = s.scale * w[r]
	}
}

// ApplyTransposeTo computes dst = Φᵀu = D Hᵀ Rᵀ u / √m (H is symmetric) with
// no heap allocation.
func (s *SRHT) ApplyTransposeTo(dst, u vec.Vector) {
	if len(u) != s.m {
		panic(fmt.Sprintf("sketch: SRHT transpose apply dimension %d, want %d", len(u), s.m))
	}
	if len(dst) != s.d {
		panic(fmt.Sprintf("sketch: SRHT transpose destination dimension %d, want %d", len(dst), s.d))
	}
	w := s.scratch
	w.Zero()
	for j, r := range s.rows {
		w[r] = u[j]
	}
	fwht(w)
	for i, sg := range s.signs {
		dst[i] = s.scale * sg * w[i]
	}
}

// ScaledApplyTo computes dst = Φx̃ with the footnote-15 rescaling
// (‖Φx̃‖ = ‖x‖) without allocating.
func (s *SRHT) ScaledApplyTo(dst, x vec.Vector) {
	scaledApplyTo(s, dst, x)
}

// ImageSet returns a constraint set in R^m containing ΦC (see imageSet).
func (s *SRHT) ImageSet(c constraint.Set, gamma float64) constraint.Set {
	return imageSet(s, c, gamma)
}

// Lift solves the Step-9 recovery program for this transform (see lift).
func (s *SRHT) Lift(c constraint.Set, target vec.Vector, opts LiftOptions) (vec.Vector, error) {
	return lift(s, c, target, opts)
}

// Interface conformance checks.
var (
	_ Transform = (*Projector)(nil)
	_ Transform = (*SRHT)(nil)
)
