package loss

import (
	"runtime"
	"sync"
	"sync/atomic"

	"privreg/internal/vec"
)

// This file defines the two optional capabilities the amortized slow-path ERM
// engine (internal/erm, internal/core) detects on a loss:
//
//   - SufficientStats: the loss is a quadratic form of (y − ⟨x, θ⟩) plus an L2
//     ridge, so its empirical risk over ANY dataset depends on the data only
//     through the O(d²) sufficient statistics (Σ x xᵀ, Σ y x, Σ y², n). The
//     mechanisms then fold points into those statistics incrementally instead
//     of retaining the history, and each τ-boundary solve costs O(d²·iters)
//     independent of the stream length.
//   - GradientAccumulator: the per-point gradient can be added into an
//     existing accumulator without allocating, which the chunked empirical
//     gradient below uses on the non-quadratic fallback path.

// SufficientStats marks a loss whose empirical risk is representable by
// quadratic sufficient statistics: ℓ(θ; (x, y)) = scale·(y − ⟨x, θ⟩)² +
// (ridge/2)·‖θ‖². Squared implements it directly; L2Regularized over such a
// base is recognized structurally by AsQuadratic (folding the wrapper's λ into
// ridge) rather than by implementing the interface itself, because a wrapper
// method would wrongly claim the capability for non-quadratic bases.
type SufficientStats interface {
	Function
	// QuadraticForm returns the coefficients (scale, ridge) of the quadratic
	// representation above.
	QuadraticForm() (scale, ridge float64)
}

// QuadraticForm implements SufficientStats: the squared loss is the quadratic
// form with scale 1 and no ridge.
func (Squared) QuadraticForm() (scale, ridge float64) { return 1, 0 }

// AsQuadratic reports whether f is representable by quadratic sufficient
// statistics and returns the coefficients of ℓ(θ; (x, y)) =
// scale·(y − ⟨x, θ⟩)² + (ridge/2)·‖θ‖². L2Regularized wrappers are unwrapped
// recursively, so ridge regression (L2Regularized{Squared, λ}) qualifies with
// (1, λ) while L2Regularized{Logistic, λ} does not qualify at all.
func AsQuadratic(f Function) (scale, ridge float64, ok bool) {
	switch v := f.(type) {
	case SufficientStats:
		scale, ridge = v.QuadraticForm()
		return scale, ridge, true
	case L2Regularized:
		s, r, baseOK := AsQuadratic(v.Base)
		if !baseOK {
			return 0, 0, false
		}
		return s, r + v.Lambda, true
	}
	return 0, 0, false
}

// GradientAccumulator is an optional capability: the per-point gradient is
// added into dst in place without allocating. For the simple losses the
// floating-point operations are identical to dst.AddInPlace(Gradient(theta,
// z)); composite losses (L2Regularized) accumulate term-by-term, which is the
// same sum in a fixed but differently-associated order. Every loss in this
// package implements it.
type GradientAccumulator interface {
	// AccumGradient adds ∇_θ ℓ(θ; z) to dst. dst and theta must have the same
	// dimension as z.X; neither theta nor z is modified.
	AccumGradient(dst, theta vec.Vector, z Point)
}

// AccumGradient implements GradientAccumulator.
func (Squared) AccumGradient(dst, theta vec.Vector, z Point) {
	r := z.Y - vec.Dot(z.X, theta)
	vec.Axpy(dst, -2*r, z.X)
}

// AccumGradient implements GradientAccumulator.
func (Logistic) AccumGradient(dst, theta vec.Vector, z Point) {
	m := z.Y * vec.Dot(z.X, theta)
	s := sigmoid(-m)
	vec.Axpy(dst, -z.Y*s, z.X)
}

// AccumGradient implements GradientAccumulator.
func (Hinge) AccumGradient(dst, theta vec.Vector, z Point) {
	m := 1 - z.Y*vec.Dot(z.X, theta)
	if m > 0 {
		vec.Axpy(dst, -z.Y, z.X)
	}
}

// AccumGradient implements GradientAccumulator, delegating to the base loss
// when it has the capability and falling back to its allocating Gradient
// otherwise.
func (r L2Regularized) AccumGradient(dst, theta vec.Vector, z Point) {
	if acc, ok := r.Base.(GradientAccumulator); ok {
		acc.AccumGradient(dst, theta, z)
	} else {
		dst.AddInPlace(r.Base.Gradient(theta, z))
	}
	vec.Axpy(dst, r.Lambda, theta)
}

// gradientChunk is the fixed chunk size of EmpiricalGradientInto. It is a
// constant — never derived from GOMAXPROCS — so the chunk partial sums, and
// therefore the combined gradient, are bit-identical on any machine at any
// parallelism.
const gradientChunk = 256

// gradientParallelMin is the dataset size below which EmpiricalGradientInto
// stays serial (goroutine fan-out costs more than it saves).
const gradientParallelMin = 4 * gradientChunk

// EmpiricalGradientInto computes dst = Σ_i ∇ℓ(θ; z_i) without allocating on
// the caller's hot path beyond per-chunk scratch. The dataset is cut into
// fixed-size chunks, each chunk is accumulated point-by-point in stream order,
// and the chunk partials are combined in chunk-index order — the identical
// floating-point sequence whether the chunks run on one goroutine or many, so
// the result is bit-deterministic across GOMAXPROCS settings.
func EmpiricalGradientInto(f Function, dst, theta vec.Vector, data []Point) {
	for i := range dst {
		dst[i] = 0
	}
	n := len(data)
	if n == 0 {
		return
	}
	acc, _ := f.(GradientAccumulator)
	chunks := (n + gradientChunk - 1) / gradientChunk
	if n < gradientParallelMin || runtime.GOMAXPROCS(0) == 1 {
		partial := vec.NewVector(len(dst))
		for c := 0; c < chunks; c++ {
			lo, hi := c*gradientChunk, (c+1)*gradientChunk
			if hi > n {
				hi = n
			}
			for i := range partial {
				partial[i] = 0
			}
			accumChunk(f, acc, partial, theta, data[lo:hi])
			dst.AddInPlace(partial)
		}
		return
	}
	partials := make([]vec.Vector, chunks)
	for c := range partials {
		partials[c] = vec.NewVector(len(dst))
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > chunks {
		workers = chunks
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo, hi := c*gradientChunk, (c+1)*gradientChunk
				if hi > n {
					hi = n
				}
				accumChunk(f, acc, partials[c], theta, data[lo:hi])
			}
		}()
	}
	wg.Wait()
	for c := 0; c < chunks; c++ {
		dst.AddInPlace(partials[c])
	}
}

// accumChunk adds the gradients of one chunk into dst in stream order.
func accumChunk(f Function, acc GradientAccumulator, dst, theta vec.Vector, pts []Point) {
	if acc != nil {
		for _, z := range pts {
			acc.AccumGradient(dst, theta, z)
		}
		return
	}
	for _, z := range pts {
		dst.AddInPlace(f.Gradient(theta, z))
	}
}

// Capability conformance checks.
var (
	_ SufficientStats     = Squared{}
	_ GradientAccumulator = Squared{}
	_ GradientAccumulator = Logistic{}
	_ GradientAccumulator = Hinge{}
	_ GradientAccumulator = L2Regularized{}
)
