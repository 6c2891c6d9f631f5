package core

import (
	"errors"
	"testing"

	"privreg/internal/constraint"
	"privreg/internal/dp"
	"privreg/internal/erm"
	"privreg/internal/loss"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

func TestTauSelectionRules(t *testing.T) {
	// Convex rule: τ = ⌈(Td)^{1/3}/ε^{2/3}⌉, clamped to [1, T].
	if got := TauConvex(1000, 8, 1); got != 20 {
		t.Fatalf("TauConvex = %d, want 20", got)
	}
	if got := TauConvex(10, 10000, 1); got != 10 {
		t.Fatalf("TauConvex should clamp to T: %d", got)
	}
	if got := TauConvex(1000, 8, 100); got < 1 {
		t.Fatalf("TauConvex should be at least 1: %d", got)
	}
	// Strongly convex rule grows with d and shrinks with ν and ε.
	a := TauStronglyConvex(10000, 16, 1, 0.5, 1, 1)
	b := TauStronglyConvex(10000, 64, 1, 0.5, 1, 1)
	if b <= a {
		t.Fatalf("strongly convex tau should grow with d: %d vs %d", a, b)
	}
	c := TauStronglyConvex(10000, 16, 1, 2, 1, 1)
	if c >= a {
		t.Fatalf("strongly convex tau should shrink with nu: %d vs %d", c, a)
	}
	if got := TauStronglyConvex(100, 16, 1, 0, 1, 1); got != 100 {
		t.Fatalf("degenerate nu should clamp to T: %d", got)
	}
	// Width-based rule grows with T.
	w1 := TauWidthBased(100, 2, 1, 1, 1, 1)
	w2 := TauWidthBased(10000, 2, 1, 1, 1, 1)
	if w2 <= w1 {
		t.Fatalf("width-based tau should grow with T: %d vs %d", w1, w2)
	}
	// TauForLoss dispatches on strong convexity.
	cons := constraint.NewL2Ball(8, 1)
	plain := TauForLoss(loss.Squared{}, cons, 1000, privacy())
	strong := TauForLoss(loss.L2Regularized{Base: loss.Squared{}, Lambda: 1}, cons, 1000, privacy())
	if plain == strong {
		t.Fatal("strongly convex loss should select a different tau than a plain convex loss")
	}
}

func TestGenericERMRecomputesOnlyEveryTau(t *testing.T) {
	d := 3
	cons := constraint.NewL2Ball(d, 1)
	src := randx.NewSource(1)
	mech, err := NewGenericERM(loss.Squared{}, cons, hugeEpsilon(), 12, src, GenericOptions{
		Tau:   4,
		Batch: erm.PrivateBatchOptions{Iterations: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mech.Tau() != 4 {
		t.Fatalf("Tau = %d", mech.Tau())
	}
	gen, _ := linearStream(d, 0.02, 0, 2)
	var prev vec.Vector
	changes := 0
	for i := 1; i <= 12; i++ {
		if err := observe(mech, gen.Next()); err != nil {
			t.Fatal(err)
		}
		cur, err := mech.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !vec.Equal(cur, prev, 0) {
			changes++
			if i%4 != 0 {
				t.Fatalf("estimate changed at timestep %d, which is not a multiple of τ=4", i)
			}
		}
		prev = cur
	}
	if changes == 0 {
		t.Fatal("estimate never changed; the batch solver was never invoked")
	}
	if mech.Len() != 12 {
		t.Fatalf("Len = %d", mech.Len())
	}
}

func TestGenericERMPerCallBudgetComposesWithinTotal(t *testing.T) {
	cons := constraint.NewL2Ball(4, 1)
	src := randx.NewSource(2)
	total := privacy()
	mech, err := NewGenericERM(loss.Squared{}, cons, total, 256, src, GenericOptions{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 256 / mech.Tau()
	if calls < 1 {
		calls = 1
	}
	per := mech.PerCallPrivacy()
	recomposed := dp.AdvancedComposition(per, calls, total.Delta/2)
	if recomposed.Epsilon > total.Epsilon*(1+1e-9) || recomposed.Delta > total.Delta*(1+1e-9) {
		t.Fatalf("per-call budget %v recomposes to %v, exceeding total %v over %d calls",
			per, recomposed, total, calls)
	}
}

func TestGenericERMAccurateWithNegligibleNoise(t *testing.T) {
	d := 3
	cons := constraint.NewL2Ball(d, 1)
	src := randx.NewSource(3)
	horizon := 48
	mech, err := NewGenericERM(loss.Squared{}, cons, hugeEpsilon(), horizon, src, GenericOptions{
		Tau:   8,
		Batch: erm.PrivateBatchOptions{Iterations: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := linearStream(d, 0.01, 0, 4)
	data := feed(t, mech, gen, horizon)
	theta, err := mech.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := erm.Exact(loss.Squared{}, cons, data)
	if err != nil {
		t.Fatal(err)
	}
	excess := loss.Empirical(loss.Squared{}, theta, data) - loss.Empirical(loss.Squared{}, exact, data)
	// At a multiple of τ with negligible privacy noise only the black-box
	// solver's finite optimization budget separates the estimate from optimal;
	// it must clearly beat the trivial constant predictor.
	trivialExcess := loss.Empirical(loss.Squared{}, vec.NewVector(d), data) - loss.Empirical(loss.Squared{}, exact, data)
	if excess >= trivialExcess/2 {
		t.Fatalf("excess risk %v too large for negligible noise (trivial = %v)", excess, trivialExcess)
	}
	if !cons.Contains(theta, 1e-6) {
		t.Fatal("estimate not feasible")
	}
}

func TestGenericERMValidation(t *testing.T) {
	cons := constraint.NewL2Ball(2, 1)
	src := randx.NewSource(5)
	if _, err := NewGenericERM(nil, cons, privacy(), 8, src, GenericOptions{}); err == nil {
		t.Fatal("nil loss should be rejected")
	}
	if _, err := NewGenericERM(loss.Squared{}, cons, privacy(), 0, src, GenericOptions{}); err == nil {
		t.Fatal("zero horizon should be rejected")
	}
	if _, err := NewGenericERM(loss.Squared{}, cons, dp.Params{}, 8, src, GenericOptions{}); err == nil {
		t.Fatal("invalid privacy should be rejected")
	}
	if _, err := NewGenericERM(loss.Squared{}, cons, privacy(), 8, nil, GenericOptions{}); err == nil {
		t.Fatal("nil source should be rejected")
	}
	mech, err := NewGenericERM(loss.Squared{}, cons, privacy(), 2, src, GenericOptions{Tau: 1, Batch: erm.PrivateBatchOptions{Iterations: 5}})
	if err != nil {
		t.Fatal(err)
	}
	p := loss.Point{X: vec.Vector{0.5, 0}, Y: 0.5}
	if err := observe(mech, p); err != nil {
		t.Fatal(err)
	}
	if err := observe(mech, p); err != nil {
		t.Fatal(err)
	}
	if err := observe(mech, p); !errors.Is(err, ErrStreamFull) {
		t.Fatalf("expected ErrStreamFull, got %v", err)
	}
}

func TestNaiveRecomputeRunsAndIsFeasible(t *testing.T) {
	d := 3
	cons := constraint.NewL2Ball(d, 1)
	src := randx.NewSource(6)
	mech, err := NewNaiveRecompute(loss.Squared{}, cons, privacy(), 16, src, GenericOptions{Batch: erm.PrivateBatchOptions{Iterations: 10}})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := linearStream(d, 0.05, 0, 7)
	feed(t, mech, gen, 16)
	theta, err := mech.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if !cons.Contains(theta, 1e-6) {
		t.Fatal("estimate not feasible")
	}
	if mech.Len() != 16 {
		t.Fatalf("Len = %d", mech.Len())
	}
	// Over-feeding errors.
	if err := observe(mech, loss.Point{X: vec.Vector{0.1, 0, 0}, Y: 0}); !errors.Is(err, ErrStreamFull) {
		t.Fatalf("expected ErrStreamFull, got %v", err)
	}
}

func TestNaiveRecomputeNoisierThanGeneric(t *testing.T) {
	// The per-step budget of the naive mechanism must be strictly smaller than
	// the per-call budget of the τ-spaced generic mechanism for the same total
	// budget — the algebraic core of the √T-vs-(T/τ) comparison.
	d, horizon := 4, 128
	cons := constraint.NewL2Ball(d, 1)
	src := randx.NewSource(8)
	generic, err := NewGenericERM(loss.Squared{}, cons, privacy(), horizon, src.Split(), GenericOptions{})
	if err != nil {
		t.Fatal(err)
	}
	perStepNaive, err := dp.PerInvocationAdvanced(privacy(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	if perStepNaive.Epsilon >= generic.PerCallPrivacy().Epsilon {
		t.Fatalf("naive per-step ε %v should be smaller than generic per-call ε %v",
			perStepNaive.Epsilon, generic.PerCallPrivacy().Epsilon)
	}
}

func TestExcessRiskBoundHelpers(t *testing.T) {
	p := privacy()
	// Bounds are positive, capped by the trivial bound, and monotone in the key
	// parameters (monotonicity is checked in a regime where the cap is not
	// active, i.e. with a moderate log(1/δ) factor).
	b1 := ExcessRiskBoundConvex(1000, 10, 1, 1, p)
	if b1 <= 0 || b1 > 1000*1*1 {
		t.Fatalf("convex bound out of range: %v", b1)
	}
	loose := dp.Params{Epsilon: 1, Delta: 0.1}
	if ExcessRiskBoundConvex(1000, 100, 1, 1, loose) <= ExcessRiskBoundConvex(1000, 10, 1, 1, loose) {
		t.Fatal("convex bound should grow with d")
	}
	r1 := ExcessRiskBoundReg1(1000, 16, 1, p, 0.05)
	r2 := ExcessRiskBoundReg1(1000, 64, 1, p, 0.05)
	if r2 <= r1 {
		t.Fatal("reg1 bound should grow with d")
	}
	g1 := ExcessRiskBoundReg2(1000, 3, 1, p, 0.05, 0)
	g2 := ExcessRiskBoundReg2(8000, 3, 1, p, 0.05, 0)
	if g2 <= g1 {
		t.Fatal("reg2 bound should grow with T")
	}
	// Check the OPT terms in a regime where the trivial-bound cap is inactive
	// (very long stream, loose δ).
	big := ExcessRiskBoundReg2(1<<20, 3, 1, loose, 0.05, 0)
	bigOpt := ExcessRiskBoundReg2(1<<20, 3, 1, loose, 0.05, 100)
	if bigOpt <= big {
		t.Fatal("reg2 bound should grow with OPT")
	}
}
