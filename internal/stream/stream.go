// Package stream provides the synthetic data-stream generators used by the
// examples, experiments and benchmarks. The paper's guarantees are worst-case
// over input streams, so the generators focus on controlling exactly the
// quantities the bounds depend on: dimension d, stream length T, the norm
// bounds ‖x‖ ≤ 1 and |y| ≤ 1, covariate sparsity (which controls w(X)), the
// attainable minimum empirical risk OPT, and adaptivity of the covariates to a
// previously fixed projection (the failure mode Section 5 guards against with
// Gordon's theorem).
package stream

import (
	"errors"
	"math"

	"privreg/internal/loss"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// Generator produces a stream of labelled points one timestep at a time.
type Generator interface {
	// Next returns the datapoint for the next timestep.
	Next() loss.Point
	// Dim returns the covariate dimension.
	Dim() int
}

// Collect draws n points from a generator into a slice.
func Collect(g Generator, n int) []loss.Point {
	out := make([]loss.Point, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// LinearModel generates covariate/response pairs from the linear model
// y = <x, θ*> + w with sub-Gaussian noise w, normalized so that ‖x‖ ≤ 1 and
// |y| ≤ 1 (the normalization assumed by Algorithms 2 and 3).
type LinearModel struct {
	// Theta is the ground-truth regression vector θ*.
	Theta vec.Vector
	// NoiseStd is the standard deviation of the additive response noise; the
	// resulting minimum empirical risk OPT scales as T·NoiseStd².
	NoiseStd float64
	// Sparsity, when positive, makes every covariate exactly Sparsity-sparse
	// (unit-norm, random support); when zero, covariates are uniform on the
	// unit sphere. Sparse covariates give the input domain X a small Gaussian
	// width, the regime where Algorithm 3 shines.
	Sparsity int
	// CovariateScale shrinks covariates into a ball of this radius (default 1).
	CovariateScale float64

	src *randx.Source
}

// NewLinearModel returns a linear-model generator with the given ground truth.
func NewLinearModel(theta vec.Vector, noiseStd float64, sparsity int, src *randx.Source) (*LinearModel, error) {
	if len(theta) == 0 {
		return nil, errors.New("stream: empty ground-truth vector")
	}
	if noiseStd < 0 {
		return nil, errors.New("stream: negative noise standard deviation")
	}
	if src == nil {
		return nil, errors.New("stream: nil randomness source")
	}
	return &LinearModel{Theta: theta.Clone(), NoiseStd: noiseStd, Sparsity: sparsity, CovariateScale: 1, src: src}, nil
}

// Dim implements Generator.
func (m *LinearModel) Dim() int { return len(m.Theta) }

// Next implements Generator.
func (m *LinearModel) Next() loss.Point {
	d := len(m.Theta)
	var x vec.Vector
	if m.Sparsity > 0 {
		x = vec.Vector(m.src.SparseVector(d, m.Sparsity))
	} else {
		x = vec.Vector(m.src.UnitSphere(d))
	}
	scale := m.CovariateScale
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	x.Scale(scale)
	y := vec.Dot(x, m.Theta) + m.src.Normal(0, m.NoiseStd)
	// Clamp the response into [-1, 1] as the algorithms assume ‖Y‖ ≤ 1.
	if y > 1 {
		y = 1
	} else if y < -1 {
		y = -1
	}
	return loss.Point{X: x, Y: y}
}

// Classification generates labelled points for logistic/hinge losses: covariates
// uniform on the unit sphere and labels y ∈ {-1, +1} drawn from the logistic
// model P(y = 1 | x) = σ(<x, θ*>/Temperature).
type Classification struct {
	// Theta is the ground-truth separator.
	Theta vec.Vector
	// Temperature controls label noise; smaller is cleaner (default 0.1).
	Temperature float64

	src *randx.Source
}

// NewClassification returns a logistic-model classification stream.
func NewClassification(theta vec.Vector, temperature float64, src *randx.Source) (*Classification, error) {
	if len(theta) == 0 {
		return nil, errors.New("stream: empty ground-truth vector")
	}
	if src == nil {
		return nil, errors.New("stream: nil randomness source")
	}
	if temperature <= 0 {
		temperature = 0.1
	}
	return &Classification{Theta: theta.Clone(), Temperature: temperature, src: src}, nil
}

// Dim implements Generator.
func (c *Classification) Dim() int { return len(c.Theta) }

// Next implements Generator.
func (c *Classification) Next() loss.Point {
	x := vec.Vector(c.src.UnitSphere(len(c.Theta)))
	margin := vec.Dot(x, c.Theta) / c.Temperature
	p := 1 / (1 + math.Exp(-margin))
	y := -1.0
	if c.src.Bernoulli(p) {
		y = 1.0
	}
	return loss.Point{X: x, Y: y}
}

// Mixture interleaves points from an in-domain generator and an out-of-domain
// generator: with probability OutlierFraction the next point comes from the
// outlier generator. It drives the §5.2 robust-extension experiment, where
// only a subset G of the domain has small Gaussian width.
type Mixture struct {
	// InDomain generates the well-behaved (e.g. sparse) covariates.
	InDomain Generator
	// Outlier generates the out-of-domain covariates (e.g. dense).
	Outlier Generator
	// OutlierFraction is the probability of drawing from Outlier.
	OutlierFraction float64

	src *randx.Source
}

// NewMixture returns a mixture stream.
func NewMixture(inDomain, outlier Generator, outlierFraction float64, src *randx.Source) (*Mixture, error) {
	if inDomain == nil || outlier == nil {
		return nil, errors.New("stream: nil component generator")
	}
	if inDomain.Dim() != outlier.Dim() {
		return nil, errors.New("stream: mixture components must share a dimension")
	}
	if outlierFraction < 0 || outlierFraction > 1 {
		return nil, errors.New("stream: outlier fraction must lie in [0, 1]")
	}
	if src == nil {
		return nil, errors.New("stream: nil randomness source")
	}
	return &Mixture{InDomain: inDomain, Outlier: outlier, OutlierFraction: outlierFraction, src: src}, nil
}

// Dim implements Generator.
func (m *Mixture) Dim() int { return m.InDomain.Dim() }

// Next implements Generator.
func (m *Mixture) Next() loss.Point {
	if m.src.Bernoulli(m.OutlierFraction) {
		return m.Outlier.Next()
	}
	return m.InDomain.Next()
}

// Adaptive generates covariates that are chosen adversarially with respect to a
// fixed linear map reported by the Probe callback: each covariate is (a
// normalized perturbation of) the direction that the probe shrinks the most
// among a handful of random candidates. It reproduces the adaptivity issue
// discussed in Section 5 — plain JL guarantees fail against such streams, while
// Gordon's theorem over a small-width domain still holds — and is used in the
// projection-distortion tests and experiment E8.
type Adaptive struct {
	dim      int
	sparsity int
	// Probe maps a candidate covariate to the projected vector the adversary
	// can observe (e.g. Φx).
	Probe func(vec.Vector) vec.Vector
	// Candidates is the number of random candidates examined per step
	// (default 16).
	Candidates int
	// Theta is the ground-truth used for responses.
	Theta    vec.Vector
	NoiseStd float64

	src *randx.Source
}

// NewAdaptive returns an adaptive stream against the given probe.
func NewAdaptive(theta vec.Vector, sparsity int, probe func(vec.Vector) vec.Vector, src *randx.Source) (*Adaptive, error) {
	if len(theta) == 0 {
		return nil, errors.New("stream: empty ground-truth vector")
	}
	if probe == nil {
		return nil, errors.New("stream: nil probe")
	}
	if src == nil {
		return nil, errors.New("stream: nil randomness source")
	}
	return &Adaptive{dim: len(theta), sparsity: sparsity, Probe: probe, Candidates: 16, Theta: theta.Clone(), src: src}, nil
}

// Dim implements Generator.
func (a *Adaptive) Dim() int { return a.dim }

// Next implements Generator.
func (a *Adaptive) Next() loss.Point {
	cands := a.Candidates
	if cands <= 0 {
		cands = 16
	}
	var worst vec.Vector
	worstRatio := math.Inf(1)
	for i := 0; i < cands; i++ {
		var x vec.Vector
		if a.sparsity > 0 {
			x = vec.Vector(a.src.SparseVector(a.dim, a.sparsity))
		} else {
			x = vec.Vector(a.src.UnitSphere(a.dim))
		}
		px := a.Probe(x)
		ratio := vec.Norm2(px) / math.Max(vec.Norm2(x), 1e-12)
		if ratio < worstRatio {
			worstRatio = ratio
			worst = x
		}
	}
	y := vec.Dot(worst, a.Theta) + a.src.Normal(0, a.NoiseStd)
	if y > 1 {
		y = 1
	} else if y < -1 {
		y = -1
	}
	return loss.Point{X: worst, Y: y}
}
