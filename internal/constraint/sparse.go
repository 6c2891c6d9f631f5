package constraint

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"privreg/internal/vec"
)

// SparseSet is the set of k-sparse vectors of Euclidean norm at most r:
// {x ∈ R^d : ‖x‖₀ ≤ k, ‖x‖₂ ≤ r}. It is NOT convex; it is used as the input
// domain X of Section 5 (sparse covariates), where only the Gaussian width,
// support function, diameter and membership matter. Projection (hard
// thresholding to the k largest-magnitude coordinates, then rescaling into the
// ball) is provided because it is the natural Euclidean projection onto this
// set and is used by the stream generators.
type SparseSet struct {
	d, k int
	r    float64
}

// NewSparseSet returns the set of k-sparse vectors in R^d with norm at most r.
func NewSparseSet(d, k int, r float64) *SparseSet {
	if d <= 0 || k <= 0 || !isSize(r) {
		panic("constraint: SparseSet requires positive dimension, sparsity and radius")
	}
	if k > d {
		k = d
	}
	return &SparseSet{d: d, k: k, r: r}
}

// Name implements Set.
func (s *SparseSet) Name() string {
	return fmt.Sprintf("SparseSet(k=%d, r=%g, d=%d)", s.k, s.r, s.d)
}

// Dim implements Set.
func (s *SparseSet) Dim() int { return s.d }

// ProjectInto implements Set: keep the k largest-magnitude coordinates and
// clip the Euclidean norm to r. This is the exact Euclidean projection onto
// the (non-convex) set.
func (s *SparseSet) ProjectInto(dst, x vec.Vector, sc *Scratch) {
	checkDims("SparseSet", s.d, dst, x)
	vals, idx := vec.Vector(sc.floats(s.d)), sc.ints(s.d)
	copy(vals, x)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { // descending magnitude
		if va, vb := math.Abs(vals[a]), math.Abs(vals[b]); va > vb {
			return -1
		} else if va < vb {
			return 1
		}
		return 0
	})
	dst.Zero()
	for _, i := range idx[:s.k] {
		dst[i] = vals[i]
	}
	if n := vec.Norm2(dst); n > s.r {
		dst.Scale(s.r / n)
	}
}

// Contains implements Set.
func (s *SparseSet) Contains(x vec.Vector, tol float64) bool {
	checkDim("SparseSet", s.d, x)
	nz := 0
	for _, v := range x {
		if math.Abs(v) > tol {
			nz++
		}
	}
	return nz <= s.k && vec.Norm2(x) <= s.r+tol
}

// Diameter implements Set.
func (s *SparseSet) Diameter() float64 { return s.r }

// GaussianWidth implements Set: the width of the set of k-sparse unit vectors
// is Θ(√(k log(d/k))) (Section 2 of the paper); we use r·√(2k·log(d/k))
// (with d/k clamped below by e), which tracks the Monte-Carlo estimate within
// ~10–20% across the dimensions used in the experiments.
func (s *SparseSet) GaussianWidth() float64 {
	ratio := float64(s.d) / float64(s.k)
	if ratio < math.E {
		ratio = math.E
	}
	return s.r * math.Sqrt(2*float64(s.k)*math.Log(ratio))
}

// SupportFunction implements Set: the supremum of <a, g> over k-sparse vectors
// of norm ≤ r is r times the Euclidean norm of the k largest-magnitude entries
// of g.
func (s *SparseSet) SupportFunction(g vec.Vector) float64 {
	checkDim("SparseSet", s.d, g)
	mags := make([]float64, len(g))
	for i, v := range g {
		mags[i] = v * v
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(mags)))
	var sum float64
	for j := 0; j < s.k; j++ {
		sum += mags[j]
	}
	return s.r * math.Sqrt(sum)
}

// Scale implements Set.
func (s *SparseSet) Scale(c float64) Set {
	if c <= 0 {
		panic("constraint: scale must be positive")
	}
	return NewSparseSet(s.d, s.k, c*s.r)
}

// Interface conformance checks for every provided set.
var (
	_ Set = (*L2Ball)(nil)
	_ Set = (*L1Ball)(nil)
	_ Set = (*LpBall)(nil)
	_ Set = (*Simplex)(nil)
	_ Set = (*Box)(nil)
	_ Set = (*Polytope)(nil)
	_ Set = (*GroupL1Ball)(nil)
	_ Set = (*SparseSet)(nil)
)
