package dp

import (
	"fmt"
	"math"
)

// AdvancedComposition returns the overall privacy guarantee of k adaptive
// invocations of an (ε, δ)-differentially private mechanism with slack δ*
// (Theorem A.4, Dwork–Rothblum–Vadhan boosting):
//
//	( ε√(2k ln(1/δ*)) + 2kε² ,  kδ + δ* ).
func AdvancedComposition(per Params, k int, deltaStar float64) Params {
	if k < 0 {
		panic("dp: negative composition count")
	}
	if deltaStar <= 0 || deltaStar >= 1 {
		panic("dp: advanced composition slack must lie in (0, 1)")
	}
	kk := float64(k)
	eps := per.Epsilon*math.Sqrt(2*kk*math.Log(1/deltaStar)) + 2*kk*per.Epsilon*per.Epsilon
	return Params{Epsilon: eps, Delta: kk*per.Delta + deltaStar}
}

// PerInvocationAdvanced inverts advanced composition: it returns the per-
// invocation privacy parameters (ε', δ') such that k adaptive invocations of an
// (ε', δ')-differentially private mechanism are together (ε, δ)-differentially
// private, using the split employed in the proof of Theorem 3.1:
//
//	ε' = ε / (2 √(2k ln(2/δ)))    and    δ' = δ / (2k).
//
// With this setting ε'√(2k ln(2/δ)) = ε/2 and, whenever 2kε'² ≤ ε/2 (which holds
// for every ε ≤ 1 and k ≥ 1 and, more generally, whenever ε ≤ 2 ln(2/δ)), the
// total guarantee is at most (ε, δ). For the regime ε > 2 ln(2/δ) the function
// conservatively shrinks ε' further so the bound still holds.
func PerInvocationAdvanced(total Params, k int) (Params, error) {
	if err := total.Validate(); err != nil {
		return Params{}, err
	}
	if total.Delta == 0 {
		return Params{}, fmt.Errorf("dp: advanced composition requires delta > 0, got %v", total)
	}
	if k <= 0 {
		return Params{}, fmt.Errorf("dp: composition count must be positive, got %d", k)
	}
	kk := float64(k)
	logTerm := math.Log(2 / total.Delta)
	epsPrime := total.Epsilon / (2 * math.Sqrt(2*kk*logTerm))
	// Guarantee 2k ε'² ≤ ε/2, i.e. ε' ≤ sqrt(ε / (4k)). Take the min to stay safe
	// for very large ε.
	if cap := math.Sqrt(total.Epsilon / (4 * kk)); epsPrime > cap {
		epsPrime = cap
	}
	deltaPrime := total.Delta / (2 * kk)
	return Params{Epsilon: epsPrime, Delta: deltaPrime}, nil
}
