package dp

import (
	"errors"
	"math"
	"testing"

	"privreg/internal/randx"
)

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p  Params
		ok bool
	}{
		{Params{Epsilon: 1, Delta: 1e-6}, true},
		{Params{Epsilon: 0.1, Delta: 0}, true},
		{Params{Epsilon: 0, Delta: 1e-6}, false},
		{Params{Epsilon: -1, Delta: 1e-6}, false},
		{Params{Epsilon: 1, Delta: 1}, false},
		{Params{Epsilon: 1, Delta: -0.1}, false},
		{Params{Epsilon: math.Inf(1), Delta: 0}, false},
		{Params{Epsilon: math.NaN(), Delta: 0}, false},
	}
	for i, c := range cases {
		err := c.p.Validate()
		if c.ok && err != nil {
			t.Fatalf("case %d: unexpected error %v", i, err)
		}
		if !c.ok && err == nil {
			t.Fatalf("case %d: expected error for %v", i, c.p)
		}
	}
}

func TestHalveAndSplit(t *testing.T) {
	p := Params{Epsilon: 2, Delta: 1e-4}
	h := p.Halve()
	if h.Epsilon != 1 || h.Delta != 5e-5 {
		t.Fatalf("Halve = %v", h)
	}
	s := p.SplitEven(4)
	if s.Epsilon != 0.5 || s.Delta != 2.5e-5 {
		t.Fatalf("SplitEven = %v", s)
	}
}

func TestGaussianSigmaCalibration(t *testing.T) {
	p := Params{Epsilon: 1, Delta: 1e-6}
	sigma, err := GaussianSigma(2, p)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * math.Sqrt(2*math.Log(2/1e-6)) / 1
	if math.Abs(sigma-want) > 1e-12 {
		t.Fatalf("sigma = %v, want %v", sigma, want)
	}
	// Noise must shrink as epsilon grows and as sensitivity shrinks.
	s2, _ := GaussianSigma(2, Params{Epsilon: 2, Delta: 1e-6})
	if s2 >= sigma {
		t.Fatal("sigma should decrease with epsilon")
	}
	s3, _ := GaussianSigma(1, p)
	if s3 >= sigma {
		t.Fatal("sigma should decrease with sensitivity")
	}
	if _, err := GaussianSigma(1, Params{Epsilon: 1, Delta: 0}); err == nil {
		t.Fatal("Gaussian mechanism with delta=0 must be rejected")
	}
	if _, err := GaussianSigma(-1, p); err == nil {
		t.Fatal("negative sensitivity must be rejected")
	}
}

func TestLaplaceScale(t *testing.T) {
	b, err := LaplaceScale(3, 1.5)
	if err != nil || b != 2 {
		t.Fatalf("LaplaceScale = %v, %v", b, err)
	}
	if _, err := LaplaceScale(1, 0); err == nil {
		t.Fatal("epsilon=0 must be rejected")
	}
}

func TestLaplaceMechanismPerturb(t *testing.T) {
	src := randx.NewSource(2)
	mech, err := NewLaplaceMechanism(1, 0.5, src)
	if err != nil {
		t.Fatal(err)
	}
	if mech.Scale() != 2 {
		t.Fatalf("scale = %v, want 2", mech.Scale())
	}
	out := mech.Perturb([]float64{0, 0})
	if len(out) != 2 {
		t.Fatal("wrong output length")
	}
	if _, err := NewLaplaceMechanism(1, 0.5, nil); err == nil {
		t.Fatal("nil source must be rejected")
	}
}

func TestErrBudgetExhaustedIsSentinel(t *testing.T) {
	acc, err := NewAccountant(Params{Epsilon: 1, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Spend("big", Params{Epsilon: 2, Delta: 1e-7}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("expected ErrBudgetExhausted, got %v", err)
	}
}
