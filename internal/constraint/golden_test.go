package constraint

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"privreg/internal/vec"
)

// goldenSets returns, for each pinned label, the set of that kind in
// dimension d. The labels cover every set type, and LpBall at p = 1, 2 and ∞
// as well as at general p.
func goldenSets(d int) map[string]Set {
	r := rand.New(rand.NewSource(int64(40 + d)))
	vs := make([]vec.Vector, d+3)
	for i := range vs {
		vs[i] = randomVec(r, d)
	}
	return map[string]Set{
		"L2Ball":        NewL2Ball(d, 1.5),
		"Box":           NewBox(d, 0.8),
		"L1Ball":        NewL1Ball(d, 1.2),
		"Simplex":       NewSimplex(d, 1),
		"LpBall(p=1)":   NewLpBall(d, 1, 1.1),
		"LpBall(p=1.5)": NewLpBall(d, 1.5, 1),
		"LpBall(p=2)":   NewLpBall(d, 2, 0.9),
		"LpBall(p=3)":   NewLpBall(d, 3, 1),
		"LpBall(p=Inf)": NewLpBall(d, math.Inf(1), 0.7),
		"GroupL1Ball":   NewGroupL1Ball(d, 3, 1),
		"SparseSet":     NewSparseSet(d, maxI(1, d/2), 1),
		"CrossPolytope": CrossPolytope(d, 1),
		"Polytope":      NewPolytope(vs),
	}
}

// minkowskiNorm returns ‖x‖_C = inf{ρ ≥ 0 : x ∈ ρC} (Definition 6), the
// factor that scales x onto s's boundary: in closed form for the norm balls,
// the simplex and the sparse set, and by bisection on scaled copies for a
// polytope. +Inf means no scaling of s contains x.
func minkowskiNorm(s Set, x vec.Vector) float64 {
	switch c := s.(type) {
	case *L2Ball:
		return vec.Norm2(x) / c.r
	case *Box:
		return vec.NormInf(x) / c.c
	case *L1Ball:
		return vec.Norm1(x) / c.r
	case *LpBall:
		return vec.NormP(x, c.p) / c.r
	case *GroupL1Ball:
		return c.Norm(x) / c.r
	case *Simplex:
		var sum float64
		for _, v := range x {
			if v < 0 {
				return math.Inf(1)
			}
			sum += v
		}
		return sum / c.z
	case *SparseSet:
		if vec.NumNonzero(x) > c.k {
			return math.Inf(1)
		}
		return vec.Norm2(x) / c.r
	}
	if vec.Norm2(x) == 0 {
		return 0
	}
	const tol = 1e-9
	hi := 1.0
	found := false
	for iter := 0; iter < 80; iter++ {
		if s.Scale(hi).Contains(x, tol) {
			found = true
			break
		}
		hi *= 2
	}
	if !found {
		return math.Inf(1)
	}
	lo := 0.0
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if mid == 0 {
			lo = hi / 4
			continue
		}
		if s.Scale(mid).Contains(x, tol) {
			hi = mid
		} else {
			lo = mid
		}
		if hi-lo <= 1e-6*(1+hi) {
			break
		}
	}
	return hi
}

// goldenInputs returns the fixed inputs projected onto s: points well outside
// and well inside, a point scaled onto the boundary along its Minkowski
// functional, the projection of an outside point (a boundary point of a
// convex set), a vector of signed zeros mixed with entries, and vectors of
// tied magnitudes.
func goldenInputs(s Set, r *rand.Rand, project func(vec.Vector) vec.Vector) []vec.Vector {
	d := s.Dim()
	outside := vec.Scaled(randomVec(r, d), 2)
	inside := vec.Scaled(randomVec(r, d), 0.02)
	xs := []vec.Vector{outside, inside}
	along := randomVec(r, d)
	for i := range along {
		along[i] = math.Abs(along[i]) // finite Minkowski functional for the simplex
	}
	if m := minkowskiNorm(s, along); m > 0 && !math.IsInf(m, 1) {
		xs = append(xs, vec.Scaled(along, 1/m))
	}
	xs = append(xs, project(vec.Scaled(randomVec(r, d), 3)))
	zeros := randomVec(r, d)
	for i := range zeros {
		switch i % 3 {
		case 0:
			zeros[i] = 0
		case 1:
			zeros[i] = math.Copysign(0, -1)
		}
	}
	ties, tiesIn := vec.NewVector(d), vec.NewVector(d)
	for i := range ties {
		ties[i] = []float64{1.5, -1.5, 0.75, -0.75}[i%4]
		tiesIn[i] = []float64{0.1, -0.1, math.Copysign(0, -1), 0.1}[i%4] / float64(d)
	}
	return append(xs, zeros, ties, tiesIn)
}

// TestProjectGolden pins the bits of every set's projection of fixed seeded
// inputs in dimensions 1, 2, 5 and 16, as one FNV-64a digest per set kind.
// Each digest must come out the same with dst separate from x and a nil
// scratch, with dst aliasing x, and with one scratch shared by every set and
// dimension. Run with PRIVREG_GOLDEN_PRINT=1 to print the digests.
func TestProjectGolden(t *testing.T) {
	want := map[string]uint64{
		"Box":           0x9991f09a04056f4d,
		"CrossPolytope": 0x4f47f2d0cc0381f4,
		"GroupL1Ball":   0x3128b54b17e18487,
		"L1Ball":        0xa8fbd6e20b042f93,
		"L2Ball":        0xb936875e9abcd090,
		"LpBall(p=1)":   0xe4e69fd9aff5e759,
		"LpBall(p=1.5)": 0x81881693fef0ddb1,
		"LpBall(p=2)":   0xed0c10dd4ff11464,
		"LpBall(p=3)":   0x9da361803bc50652,
		"LpBall(p=Inf)": 0x389d66eca4c7322b,
		"Polytope":      0x158d2a52cb957242,
		"Simplex":       0xa5077f54be463c20,
		"SparseSet":     0xc976fffa4c6702f9,
	}
	print := os.Getenv("PRIVREG_GOLDEN_PRINT") != ""
	var shared Scratch
	modes := map[string]func(s Set, x vec.Vector) vec.Vector{
		"separate": project,
		"aliased": func(s Set, x vec.Vector) vec.Vector {
			y := x.Clone()
			s.ProjectInto(y, y, &shared)
			return y
		},
		"shared": func(s Set, x vec.Vector) vec.Vector {
			y := vec.NewVector(len(x))
			s.ProjectInto(y, x, &shared)
			return y
		},
	}
	dims := []int{1, 2, 5, 16}
	var labels []string
	for label := range goldenSets(1) {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		for mode, proj := range modes {
			h := fnv.New64a()
			var buf [8]byte
			for _, d := range dims {
				s := goldenSets(d)[label]
				r := rand.New(rand.NewSource(int64(7 * d)))
				project := func(x vec.Vector) vec.Vector { return proj(s, x) }
				for _, x := range goldenInputs(s, r, project) {
					for _, v := range project(x) {
						binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
						h.Write(buf[:])
					}
				}
			}
			got := h.Sum64()
			if print && mode == "separate" {
				fmt.Printf("%q: %#x,\n", label, got)
			}
			if !print && got != want[label] {
				t.Errorf("%s (%s dst): projection digest %#x, want %#x", label, mode, got, want[label])
			}
		}
	}
}

// FuzzProjectInto checks ProjectInto's contract on every set kind: an aliased
// and a separate dst give the same bits, one Scratch reused across sets and
// dimensions gives the same bits as a fresh one, the result is feasible, and
// a dst of the wrong length panics.
func FuzzProjectInto(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0), 1.0)
	f.Add(int64(2), uint8(5), uint8(4), 3.0)
	f.Add(int64(3), uint8(1), uint8(6), 0.01)
	f.Add(int64(4), uint8(16), uint8(7), 10.0)
	f.Add(int64(5), uint8(4), uint8(8), 2.0)
	var shared Scratch
	f.Fuzz(func(t *testing.T, seed int64, dim, kind uint8, scale float64) {
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			scale = 1
		}
		scale = math.Max(1e-3, math.Min(1e3, math.Abs(scale)))
		d := 1 + int(dim)%24
		r := rand.New(rand.NewSource(seed))
		sets := allSets(d)
		s := sets[int(kind)%len(sets)]
		x := vec.Scaled(randomVec(r, d), scale)

		want := vec.NewVector(d)
		s.ProjectInto(want, x, &Scratch{})
		aliased := x.Clone()
		s.ProjectInto(aliased, aliased, nil)
		// Leave the shared scratch's buffers stale from another set and
		// dimension before reusing it.
		other := allSets(1 + (d+7)%24)
		o := other[(int(kind)+1)%len(other)]
		o.ProjectInto(vec.NewVector(o.Dim()), vec.Scaled(randomVec(r, o.Dim()), 3), &shared)
		reused := vec.NewVector(d)
		s.ProjectInto(reused, x, &shared)
		for i := range want {
			if math.Float64bits(aliased[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: aliased dst differs at %d: %v, separate %v", s.Name(), i, aliased[i], want[i])
			}
			if math.Float64bits(reused[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: reused scratch differs at %d: %v, fresh %v", s.Name(), i, reused[i], want[i])
			}
		}
		if tol := 1e-6 * (1 + vec.Norm2(x)); !s.Contains(want, tol) {
			t.Fatalf("%s: projection %v of %v is infeasible", s.Name(), want, x)
		}
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: dst of length %d did not panic", s.Name(), d+1)
			}
		}()
		s.ProjectInto(vec.NewVector(d+1), x, &shared)
	})
}
