// Package dp implements the differential-privacy substrate used by the
// incremental mechanisms: privacy parameters, the Gaussian and Laplace
// mechanisms for vector-valued functions, and sequential / advanced composition
// accounting (Theorems A.3 and A.4 of the paper).
//
// The definitions follow Section 2 and Appendix A.2 of "Private Incremental
// Regression" (Kasiviswanathan, Nissim, Jin — PODS 2017): two streams are
// neighbors when they differ in a single datapoint, and an algorithm is
// (ε, δ)-differentially private when the distributions of its entire output
// sequence on neighboring streams are (e^ε, δ)-close (event-level privacy,
// Definition 4).
package dp

import (
	"errors"
	"fmt"
	"math"

	"privreg/internal/randx"
)

// Params holds an (ε, δ) differential-privacy guarantee.
type Params struct {
	// Epsilon is the multiplicative privacy-loss bound. Must be positive.
	Epsilon float64
	// Delta is the probability with which the ε bound may fail. Must lie in
	// [0, 1). Delta == 0 denotes pure ε-differential privacy.
	Delta float64
}

// Validate returns an error when the parameters are outside their legal range.
func (p Params) Validate() error {
	if !(p.Epsilon > 0) || math.IsInf(p.Epsilon, 0) || math.IsNaN(p.Epsilon) {
		return fmt.Errorf("dp: epsilon must be a positive finite number, got %v", p.Epsilon)
	}
	if p.Delta < 0 || p.Delta >= 1 || math.IsNaN(p.Delta) {
		return fmt.Errorf("dp: delta must lie in [0, 1), got %v", p.Delta)
	}
	return nil
}

// String renders the parameters compactly.
func (p Params) String() string {
	return fmt.Sprintf("(ε=%g, δ=%g)", p.Epsilon, p.Delta)
}

// Halve returns parameters with both ε and δ halved. The regression mechanisms
// use this to split the budget between the two Tree Mechanism invocations
// (Steps 3–4 of Algorithm 2 and Steps 5–6 of Algorithm 3).
func (p Params) Halve() Params {
	return Params{Epsilon: p.Epsilon / 2, Delta: p.Delta / 2}
}

// SplitEven returns parameters with ε and δ divided evenly across k components,
// per basic composition (Theorem A.3).
func (p Params) SplitEven(k int) Params {
	if k <= 0 {
		panic("dp: SplitEven requires k >= 1")
	}
	return Params{Epsilon: p.Epsilon / float64(k), Delta: p.Delta / float64(k)}
}

// ErrBudgetExhausted is returned by the Accountant when a requested spend would
// exceed the configured total budget.
var ErrBudgetExhausted = errors.New("dp: privacy budget exhausted")

// GaussianSigma returns the standard deviation of the Gaussian mechanism noise
// for a function with L2-sensitivity sensitivity under (ε, δ)-differential
// privacy, following the calibration of Theorem A.2:
//
//	σ = sensitivity * sqrt(2 ln(2/δ)) / ε.
//
// δ must be strictly positive for the Gaussian mechanism.
func GaussianSigma(sensitivity float64, p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if p.Delta == 0 {
		return 0, errors.New("dp: the Gaussian mechanism requires delta > 0")
	}
	if sensitivity < 0 {
		return 0, errors.New("dp: negative sensitivity")
	}
	return sensitivity * math.Sqrt(2*math.Log(2/p.Delta)) / p.Epsilon, nil
}

// LaplaceScale returns the scale parameter b of the Laplace mechanism for a
// function with L1-sensitivity sensitivity under ε-differential privacy:
// b = sensitivity / ε.
func LaplaceScale(sensitivity float64, epsilon float64) (float64, error) {
	if !(epsilon > 0) {
		return 0, errors.New("dp: epsilon must be positive")
	}
	if sensitivity < 0 {
		return 0, errors.New("dp: negative sensitivity")
	}
	return sensitivity / epsilon, nil
}

// LaplaceMechanism perturbs vector-valued outputs with Laplace noise calibrated
// to an L1-sensitivity bound (pure ε-differential privacy).
type LaplaceMechanism struct {
	scale float64
	src   *randx.Source
}

// NewLaplaceMechanism builds a Laplace mechanism with scale calibrated for the
// given L1 sensitivity and ε.
func NewLaplaceMechanism(sensitivity, epsilon float64, src *randx.Source) (*LaplaceMechanism, error) {
	scale, err := LaplaceScale(sensitivity, epsilon)
	if err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("dp: nil randomness source")
	}
	return &LaplaceMechanism{scale: scale, src: src}, nil
}

// Scale returns the per-coordinate Laplace scale parameter.
func (l *LaplaceMechanism) Scale() float64 { return l.scale }

// Perturb adds independent Laplace(0, b) noise to every coordinate of value and
// returns a new slice.
func (l *LaplaceMechanism) Perturb(value []float64) []float64 {
	out := make([]float64, len(value))
	for i, v := range value {
		out[i] = v + l.src.Laplace(l.scale)
	}
	return out
}
