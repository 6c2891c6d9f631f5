package constraint

import (
	"fmt"
	"math"

	"privreg/internal/vec"
)

// GroupL1Ball is the unit ball (scaled by r) of the group/block L1,2 norm
// defined in Section 5.2 of the paper: coordinates are partitioned into
// consecutive blocks of size k (the last block may be shorter) and
//
//	‖θ‖_{k,L1,2} = Σ_blocks ‖θ_block‖₂ .
//
// It is the constraint set of group-Lasso style regression and has Gaussian
// width O(r·√(k + log(d/k))).
type GroupL1Ball struct {
	d, k   int
	r      float64
	groups [][2]int // half-open [start, end) index ranges
}

// NewGroupL1Ball returns the radius-r group-L1 ball in R^d with consecutive
// blocks of size k.
func NewGroupL1Ball(d, k int, r float64) *GroupL1Ball {
	if d <= 0 || k <= 0 || r <= 0 {
		panic("constraint: GroupL1Ball requires positive dimension, block size and radius")
	}
	if k > d {
		k = d
	}
	var groups [][2]int
	for start := 0; start < d; start += k {
		end := start + k
		if end > d {
			end = d
		}
		groups = append(groups, [2]int{start, end})
	}
	return &GroupL1Ball{d: d, k: k, r: r, groups: groups}
}

// Name implements Set.
func (b *GroupL1Ball) Name() string {
	return fmt.Sprintf("GroupL1Ball(k=%d, r=%g, d=%d)", b.k, b.r, b.d)
}

// Dim implements Set.
func (b *GroupL1Ball) Dim() int { return b.d }

// NumGroups returns the number of blocks.
func (b *GroupL1Ball) NumGroups() int { return len(b.groups) }

// Norm returns the group-L1,2 norm of x.
func (b *GroupL1Ball) Norm(x vec.Vector) float64 {
	checkDim("GroupL1Ball", b.d, x)
	var s float64
	for _, g := range b.groups {
		s += vec.Norm2(x[g[0]:g[1]])
	}
	return s
}

// ProjectInto implements Set. The projection factorizes: with z_j = ‖x_gj‖₂
// the per-block norms, project z onto the L1 ball of radius r obtaining w,
// then rescale each block by w_j / z_j. This is the standard
// group-soft-thresholding argument and is verified by the property tests
// (idempotence, feasibility, and non-expansiveness).
func (b *GroupL1Ball) ProjectInto(dst, x vec.Vector, s *Scratch) {
	checkDims("GroupL1Ball", b.d, dst, x)
	if b.Contains(x, 0) {
		copy(dst, x)
		return
	}
	ng := len(b.groups)
	buf := s.floats(3 * ng)
	z, w := vec.Vector(buf[:ng]), vec.Vector(buf[ng:2*ng])
	for j, g := range b.groups {
		z[j] = vec.Norm2(x[g[0]:g[1]])
	}
	projectL1Into(w, z, b.r, buf[2*ng:])
	for j, g := range b.groups {
		if z[j] == 0 {
			dst[g[0]:g[1]].Zero()
			continue
		}
		scale := w[j] / z[j]
		for i := g[0]; i < g[1]; i++ {
			dst[i] = scale * x[i]
		}
	}
}

// Contains implements Set.
func (b *GroupL1Ball) Contains(x vec.Vector, tol float64) bool {
	checkDim("GroupL1Ball", b.d, x)
	return b.Norm(x) <= b.r+tol
}

// Diameter implements Set: the maximum L2 norm is r (all mass in one block).
func (b *GroupL1Ball) Diameter() float64 { return b.r }

// GaussianWidth implements Set, using the O(√(k log(d/k)))-type bound quoted in
// Section 5.2 (Talwar et al.): we use r·(√k + √(2 log(#groups))), which is the
// standard width bound for the group-L1 ball.
func (b *GroupL1Ball) GaussianWidth() float64 {
	ng := float64(len(b.groups))
	w := math.Sqrt(float64(b.k))
	if ng > 1 {
		w += math.Sqrt(2 * math.Log(ng))
	}
	return b.r * w
}

// SupportFunction implements Set: the dual of the group-L1,2 norm is the
// group-L∞,2 norm, so the support value is r·max_blocks ‖g_block‖₂.
func (b *GroupL1Ball) SupportFunction(g vec.Vector) float64 {
	checkDim("GroupL1Ball", b.d, g)
	var m float64
	for _, gr := range b.groups {
		if n := vec.Norm2(g[gr[0]:gr[1]]); n > m {
			m = n
		}
	}
	return b.r * m
}

// MinkowskiNorm implements Set: ‖x‖_C = ‖x‖_{k,L1,2} / r.
func (b *GroupL1Ball) MinkowskiNorm(x vec.Vector) float64 {
	return b.Norm(x) / b.r
}

// Scale implements Set.
func (b *GroupL1Ball) Scale(s float64) Set {
	if s <= 0 {
		panic("constraint: scale must be positive")
	}
	return NewGroupL1Ball(b.d, b.k, s*b.r)
}
