package constraint

import (
	"fmt"
	"math"

	"privreg/internal/vec"
)

// Polytope is the convex hull conv{a_1, ..., a_l} of a finite set of vertices
// in R^d. Section 5.2 points out that when the number of vertices l is
// polynomial in d the Gaussian width is O(max_i ‖a_i‖ · √(log l)), so such
// polytopes are attractive low-width constraint sets.
//
// Euclidean projection onto a vertex-described polytope is a quadratic program;
// this implementation solves it in the weight space (a simplex-constrained
// least-squares problem, min_{w ∈ Δ} ‖Aᵀw - x‖²) with accelerated projected
// gradient descent, reusing the exact simplex projection. Accuracy is
// controlled by the iteration budget and verified by tests against brute-force
// solutions in low dimension.
type Polytope struct {
	d        int
	vertices []vec.Vector
	maxNorm  float64
	diameter float64
	// symmetric records whether the vertex set is symmetric about the origin
	// (every -a_i is also a vertex). In that case the Minkowski functional is a
	// norm and MinkowskiNorm can rely on the bisection helper being tight.
	symmetric bool
	projIters int
	// lipschitz is ‖A‖², the gradient Lipschitz constant of the weight-space
	// projection objective (A is the vertex matrix); precomputed once.
	lipschitz float64
}

// NewPolytope returns the convex hull of the given vertices. At least one
// vertex is required, and all vertices must share the same dimension.
func NewPolytope(vertices []vec.Vector) *Polytope {
	if len(vertices) == 0 {
		panic("constraint: Polytope requires at least one vertex")
	}
	d := len(vertices[0])
	if d == 0 {
		panic("constraint: Polytope vertices must be non-empty vectors")
	}
	vs := make([]vec.Vector, len(vertices))
	var maxNorm float64
	for i, v := range vertices {
		if len(v) != d {
			panic("constraint: Polytope vertices must share a dimension")
		}
		vs[i] = v.Clone()
		if n := vec.Norm2(v); n > maxNorm {
			maxNorm = n
		}
	}
	p := &Polytope{
		d:         d,
		vertices:  vs,
		maxNorm:   maxNorm,
		diameter:  maxNorm,
		symmetric: isSymmetricVertexSet(vs),
		projIters: 500,
	}
	// Precompute the gradient Lipschitz constant ‖A‖² of the weight-space
	// objective via power iteration (with a small safety margin).
	a := vec.NewMatrixFromRows(vs)
	spec := a.PowerIterationSpectralNorm(40, nil, nil)
	if spec == 0 {
		spec = a.SpectralNormUpperBound()
	}
	p.lipschitz = 1.05 * spec * spec
	if p.lipschitz == 0 {
		p.lipschitz = 1
	}
	return p
}

// CrossPolytope returns the L1 ball of radius r represented explicitly as the
// convex hull of its 2d vertices {±r·e_i}. It is used in tests to cross-check
// the polytope projection against the closed-form L1 projection.
func CrossPolytope(d int, r float64) *Polytope {
	vs := make([]vec.Vector, 0, 2*d)
	for i := 0; i < d; i++ {
		v := vec.NewVector(d)
		v[i] = r
		vs = append(vs, v)
		w := vec.NewVector(d)
		w[i] = -r
		vs = append(vs, w)
	}
	return NewPolytope(vs)
}

func isSymmetricVertexSet(vs []vec.Vector) bool {
	const tol = 1e-12
	for _, v := range vs {
		found := false
		for _, w := range vs {
			if vec.Equal(vec.Scaled(v, -1), w, tol) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Name implements Set.
func (p *Polytope) Name() string {
	return fmt.Sprintf("Polytope(vertices=%d, d=%d)", len(p.vertices), p.d)
}

// Dim implements Set.
func (p *Polytope) Dim() int { return p.d }

// NumVertices returns the number of vertices.
func (p *Polytope) NumVertices() int { return len(p.vertices) }

// Vertices returns copies of the polytope's vertices.
func (p *Polytope) Vertices() []vec.Vector {
	out := make([]vec.Vector, len(p.vertices))
	for i, v := range p.vertices {
		out[i] = v.Clone()
	}
	return out
}

// ProjectInto implements Set via simplex-constrained least squares in weight
// space.
func (p *Polytope) ProjectInto(dst, x vec.Vector, s *Scratch) {
	checkDims("Polytope", p.d, dst, x)
	w := p.projectWeights(x, s.floats(5*len(p.vertices)+p.d))
	dst.Zero()
	for i, wi := range w {
		if wi != 0 {
			vec.Axpy(dst, wi, p.vertices[i])
		}
	}
}

// projectWeights returns the simplex weights w minimizing ‖Σ w_i a_i - x‖²,
// computed in buf (5l + d slots for l vertices).
func (p *Polytope) projectWeights(x vec.Vector, buf []float64) vec.Vector {
	l := len(p.vertices)
	if l == 1 {
		buf[0] = 1
		return buf[:1]
	}
	prev, next, y, grad := vec.Vector(buf[:l]), vec.Vector(buf[l:2*l]), vec.Vector(buf[2*l:3*l]), vec.Vector(buf[3*l:4*l])
	sorted, r := buf[4*l:5*l], vec.Vector(buf[5*l:])
	// Initialize at the vertex nearest to x.
	best, bi := math.Inf(1), 0
	for i, v := range p.vertices {
		if d := vec.Dist2(v, x); d < best {
			best, bi = d, i
		}
	}
	prev.Zero()
	prev[bi] = 1
	copy(y, prev)

	// Gradient of f(w) = ½‖Σ w_i a_i - x‖² is grad_i = <a_i, r> with
	// r = Σ w_i a_i - x; its Lipschitz constant ‖A‖² is precomputed. The solve
	// uses FISTA (accelerated projected gradient) on the weight simplex.
	step := 1 / p.lipschitz
	tk := 1.0
	for iter := 0; iter < p.projIters; iter++ {
		// r = Σ y_i a_i - x
		copy(r, x)
		r.Scale(-1)
		for i, yi := range y {
			if yi != 0 {
				vec.Axpy(r, yi, p.vertices[i])
			}
		}
		for i, v := range p.vertices {
			grad[i] = vec.Dot(v, r)
		}
		copy(next, y)
		vec.Axpy(next, -step, grad)
		projectSimplexInto(next, next, 1, false, sorted)
		tNext := (1 + math.Sqrt(1+4*tk*tk)) / 2
		mom := (tk - 1) / tNext
		for i, v := range next {
			y[i] = v + mom*(v-prev[i])
		}
		// Keep the momentum point on the simplex to preserve feasibility of the
		// gradient evaluation.
		projectSimplexInto(y, y, 1, false, sorted)
		moved := vec.Dist2(next, prev)
		prev, next = next, prev
		tk = tNext
		if moved <= 1e-12 {
			break
		}
	}
	return prev
}

// Contains implements Set: x is in the hull iff its projection is within tol.
func (p *Polytope) Contains(x vec.Vector, tol float64) bool {
	checkDim("Polytope", p.d, x)
	proj := vec.NewVector(p.d)
	p.ProjectInto(proj, x, nil)
	return vec.Dist2(proj, x) <= tol+1e-9
}

// Diameter implements Set: the maximum L2 norm over a polytope is attained at a
// vertex.
func (p *Polytope) Diameter() float64 { return p.diameter }

// GaussianWidth implements Set: w(conv{a_i}) ≤ max_i ‖a_i‖ · √(2 log l), the
// bound quoted in Section 5.2 (exact for the expectation of a max of l
// sub-Gaussians up to lower-order terms).
func (p *Polytope) GaussianWidth() float64 {
	l := float64(len(p.vertices))
	if l <= 1 {
		return 0
	}
	return p.maxNorm * math.Sqrt(2*math.Log(l))
}

// SupportFunction implements Set: the support of a convex hull is the maximum
// over the vertices.
func (p *Polytope) SupportFunction(g vec.Vector) float64 {
	checkDim("Polytope", p.d, g)
	best := math.Inf(-1)
	for _, v := range p.vertices {
		if s := vec.Dot(v, g); s > best {
			best = s
		}
	}
	return best
}

// MinkowskiNorm implements Set. For a general vertex-described polytope
// containing the origin, ‖x‖_C = inf{ρ : x ∈ ρC} is computed by bisection on ρ
// using Contains on scaled copies; the result is accurate to a relative 1e-6.
// If no finite scaling contains x (e.g. the polytope has empty interior in the
// direction of x), +Inf is returned.
func (p *Polytope) MinkowskiNorm(x vec.Vector) float64 {
	checkDim("Polytope", p.d, x)
	return minkowskiByBisection(p, x)
}

// Scale implements Set.
func (p *Polytope) Scale(s float64) Set {
	if s <= 0 {
		panic("constraint: scale must be positive")
	}
	vs := make([]vec.Vector, len(p.vertices))
	for i, v := range p.vertices {
		vs[i] = vec.Scaled(v, s)
	}
	return NewPolytope(vs)
}

// minkowskiByBisection computes inf{ρ ≥ 0 : x ∈ ρC} for an arbitrary Set using
// membership queries on scaled copies. It assumes the set is star-shaped about
// the origin (true for every convex set containing the origin).
func minkowskiByBisection(c Set, x vec.Vector) float64 {
	n := vec.Norm2(x)
	if n == 0 {
		return 0
	}
	const tol = 1e-9
	// Bracket: grow hi until x ∈ hi·C or we give up.
	hi := 1.0
	found := false
	for iter := 0; iter < 80; iter++ {
		if c.Scale(hi).Contains(x, tol) {
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
		if c.Scale(mid).Contains(x, tol) {
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
