package dp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAdvancedCompositionFormula(t *testing.T) {
	per := Params{Epsilon: 0.1, Delta: 1e-8}
	k := 20
	deltaStar := 1e-6
	got := AdvancedComposition(per, k, deltaStar)
	wantEps := 0.1*math.Sqrt(2*20*math.Log(1/deltaStar)) + 2*20*0.01
	wantDelta := 20*1e-8 + 1e-6
	if math.Abs(got.Epsilon-wantEps) > 1e-12 || math.Abs(got.Delta-wantDelta) > 1e-18 {
		t.Fatalf("AdvancedComposition = %v, want (%v, %v)", got, wantEps, wantDelta)
	}
}

// TestPerInvocationAdvancedRoundTrip is the key soundness property used by the
// mechanisms: composing the per-invocation parameters k times with the advanced
// composition theorem must not exceed the requested total budget.
func TestPerInvocationAdvancedRoundTrip(t *testing.T) {
	f := func(seedEps, seedK uint8) bool {
		eps := 0.05 + float64(seedEps%40)/10 // 0.05 .. 4.0
		k := 1 + int(seedK%200)
		total := Params{Epsilon: eps, Delta: 1e-6}
		per, err := PerInvocationAdvanced(total, k)
		if err != nil {
			return false
		}
		// Recompose with slack delta/2, matching the derivation.
		recomposed := AdvancedComposition(per, k, total.Delta/2)
		return recomposed.Epsilon <= total.Epsilon*(1+1e-9) &&
			recomposed.Delta <= total.Delta*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPerInvocationAdvancedRejectsBadInput(t *testing.T) {
	if _, err := PerInvocationAdvanced(Params{Epsilon: 1, Delta: 0}, 5); err == nil {
		t.Fatal("delta=0 should be rejected")
	}
	if _, err := PerInvocationAdvanced(Params{Epsilon: 1, Delta: 1e-6}, 0); err == nil {
		t.Fatal("k=0 should be rejected")
	}
	if _, err := PerInvocationAdvanced(Params{Epsilon: -1, Delta: 1e-6}, 3); err == nil {
		t.Fatal("invalid epsilon should be rejected")
	}
}

func TestPerInvocationMonotonicity(t *testing.T) {
	total := Params{Epsilon: 1, Delta: 1e-6}
	p10, _ := PerInvocationAdvanced(total, 10)
	p100, _ := PerInvocationAdvanced(total, 100)
	if p100.Epsilon >= p10.Epsilon {
		t.Fatalf("per-invocation epsilon should shrink with k: %v vs %v", p100, p10)
	}
	if p100.Delta >= p10.Delta {
		t.Fatalf("per-invocation delta should shrink with k: %v vs %v", p100, p10)
	}
}
