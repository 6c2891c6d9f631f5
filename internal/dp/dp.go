// Package dp implements the differential-privacy substrate used by the
// incremental mechanisms: privacy parameters, the Gaussian mechanism's noise
// calibration, and advanced composition (Theorem A.4 of the paper).
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
