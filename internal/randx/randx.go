// Package randx provides the random-sampling substrate for the library:
// Gaussian samplers, random vectors, sparse and unit-sphere samples, and a
// splittable, seedable Source so every mechanism, test, and benchmark is
// reproducible. Normal sampling runs a shared double-precision ziggurat
// (ziggurat.go); counter.go adds the counter-keyed PRF streams
// (CounterSource, FillNormalAt) behind the lazy Tree-Mechanism node noise,
// whose output is a pure function of (key, node) rather than of draw order.
//
// All samplers take an explicit *Source; nothing in the library uses the global
// math/rand state. This matters for differential privacy experiments where we
// re-run mechanisms on neighboring streams and must control all other
// randomness.
package randx

import (
	"math"
	"math/rand"
)

// Source wraps a deterministic pseudo-random generator. It is a thin layer over
// math/rand.Rand that adds the distribution samplers the privacy mechanisms
// need and supports deterministic splitting for parallel or multi-component use.
type Source struct {
	rng *rand.Rand
	// bits is rng's generator, read directly by the ziggurat normal sampler.
	bits bitsSource
	seed int64
}

// NewSource returns a Source seeded with the given seed.
func NewSource(seed int64) *Source {
	// rand.NewSource's result is documented to implement Source64.
	bits := rand.NewSource(seed).(rand.Source64)
	return &Source{rng: rand.New(bits), bits: bits, seed: seed}
}

// Seed returns the seed the Source was created with.
func (s *Source) Seed() int64 { return s.seed }

// Mix64 applies the SplitMix64 finalizer: a bijective avalanche mix that
// spreads nearby inputs to well-separated outputs. It is the seed-derivation
// primitive shared by Split and by per-stream seed derivation in consumers
// (e.g. the public Pool).
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split returns a new Source whose stream is deterministically derived from the
// parent but statistically independent of subsequent draws from it. It is used
// to hand separate randomness to sub-components (e.g. the two Tree Mechanism
// instances inside a regression mechanism).
func (s *Source) Split() *Source {
	return NewSource(s.DeriveKey())
}

// DeriveKey draws a 63-bit key from the parent stream — the allocation-free
// form of Split().Seed(), and the derivation the continual-sum mechanisms use
// for their noise keys. Like Split it consumes one parent draw, so distinct
// mechanisms constructed from the same Source receive independent keys (and
// hence independent noise) exactly as they received independent sub-streams
// under the draw-based scheme.
func (s *Source) DeriveKey() int64 {
	// SplitMix-style mixing keeps derived keys well separated even for small
	// consecutive parent draws.
	return int64(Mix64(s.rng.Uint64()) & 0x7fffffffffffffff)
}

// Float64 returns a uniform sample in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform sample in {0, ..., n-1}.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Perm returns a uniformly random permutation of {0, ..., n-1}.
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Normal returns a sample from N(mu, sigma^2). sigma must be non-negative;
// sigma == 0 returns mu exactly. All of the Source's normal samplers (Normal,
// FillNormal, NormalVector) share one double-precision ziggurat (see
// ziggurat.go) over the generator, so they consume the stream identically per
// sample and remain interchangeable.
func (s *Source) Normal(mu, sigma float64) float64 {
	if sigma < 0 {
		panic("randx: negative standard deviation")
	}
	if sigma == 0 {
		return mu
	}
	return mu + sigma*zigNormal(s.bits)
}

// FillNormal fills dst with i.i.d. N(mu, sigma^2) samples without allocating.
// It draws exactly len(dst) normals in index order through the same ziggurat
// as Normal, so it consumes the underlying stream identically to a scalar
// Normal loop — swapping one for the other never changes downstream
// randomness.
func (s *Source) FillNormal(dst []float64, mu, sigma float64) {
	if sigma < 0 {
		panic("randx: negative standard deviation")
	}
	if sigma == 0 {
		for i := range dst {
			dst[i] = mu
		}
		return
	}
	c := s.bits
	for i := range dst {
		dst[i] = mu + sigma*zigNormal(c)
	}
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// Rademacher returns +1 or -1 with equal probability.
func (s *Source) Rademacher() float64 {
	if s.rng.Int63()&1 == 0 {
		return 1
	}
	return -1
}

// NormalVector returns a d-dimensional vector with i.i.d. N(0, sigma^2) entries.
func (s *Source) NormalVector(d int, sigma float64) []float64 {
	out := make([]float64, d)
	if sigma == 0 {
		return out
	}
	for i := range out {
		out[i] = sigma * zigNormal(s.bits)
	}
	return out
}

// UnitSphere returns a uniform sample from the Euclidean unit sphere in R^d.
func (s *Source) UnitSphere(d int) []float64 {
	for {
		v := s.NormalVector(d, 1)
		var n float64
		for _, x := range v {
			n += x * x
		}
		n = math.Sqrt(n)
		if n > 1e-12 {
			for i := range v {
				v[i] /= n
			}
			return v
		}
	}
}

// UnitBall returns a uniform sample from the Euclidean unit ball in R^d.
func (s *Source) UnitBall(d int) []float64 {
	v := s.UnitSphere(d)
	r := math.Pow(s.rng.Float64(), 1/float64(d))
	for i := range v {
		v[i] *= r
	}
	return v
}

// SparseVector returns a d-dimensional vector with exactly k nonzero entries at
// uniformly random positions; each nonzero entry is ±1/√k so that the vector has
// unit Euclidean norm. k is clamped to [1, d].
func (s *Source) SparseVector(d, k int) []float64 {
	if d <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > d {
		k = d
	}
	out := make([]float64, d)
	perm := s.rng.Perm(d)
	mag := 1 / math.Sqrt(float64(k))
	for i := 0; i < k; i++ {
		out[perm[i]] = mag * s.Rademacher()
	}
	return out
}
