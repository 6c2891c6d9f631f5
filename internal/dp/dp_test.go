package dp

import (
	"math"
	"testing"
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
