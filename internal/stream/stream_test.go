package stream

import (
	"math"
	"testing"

	"privreg/internal/randx"
	"privreg/internal/vec"
)

func TestLinearModelBoundsAndSignal(t *testing.T) {
	src := randx.NewSource(1)
	truth := vec.Vector{0.5, -0.3, 0.2, 0.1}
	gen, err := NewLinearModel(truth, 0.05, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Dim() != 4 {
		t.Fatalf("Dim = %d", gen.Dim())
	}
	var corr float64
	const n = 2000
	for i := 0; i < n; i++ {
		p := gen.Next()
		if vec.Norm2(p.X) > 1+1e-9 {
			t.Fatalf("covariate norm %v > 1", vec.Norm2(p.X))
		}
		if p.Y < -1-1e-9 || p.Y > 1+1e-9 {
			t.Fatalf("response %v outside [-1, 1]", p.Y)
		}
		corr += p.Y * vec.Dot(p.X, truth)
	}
	if corr/n <= 0 {
		t.Fatal("responses carry no signal about the ground truth")
	}
}

func TestLinearModelSparsity(t *testing.T) {
	src := randx.NewSource(2)
	truth := make(vec.Vector, 50)
	truth[0] = 0.5
	gen, err := NewLinearModel(truth, 0.01, 3, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p := gen.Next()
		if vec.NumNonzero(p.X) != 3 {
			t.Fatalf("covariate has %d nonzeros, want 3", vec.NumNonzero(p.X))
		}
		if math.Abs(vec.Norm2(p.X)-1) > 1e-9 {
			t.Fatalf("sparse covariate norm %v", vec.Norm2(p.X))
		}
	}
}

func TestLinearModelValidation(t *testing.T) {
	src := randx.NewSource(3)
	if _, err := NewLinearModel(nil, 0.1, 0, src); err == nil {
		t.Fatal("empty truth should error")
	}
	if _, err := NewLinearModel(vec.Vector{1}, -0.1, 0, src); err == nil {
		t.Fatal("negative noise should error")
	}
	if _, err := NewLinearModel(vec.Vector{1}, 0.1, 0, nil); err == nil {
		t.Fatal("nil source should error")
	}
}

func TestClassificationLabelsAndSignal(t *testing.T) {
	src := randx.NewSource(4)
	truth := vec.Vector{1, 0, 0}
	gen, err := NewClassification(truth, 0.1, src)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	const n = 2000
	for i := 0; i < n; i++ {
		p := gen.Next()
		if p.Y != 1 && p.Y != -1 {
			t.Fatalf("label %v not in {-1, +1}", p.Y)
		}
		if math.Abs(vec.Norm2(p.X)-1) > 1e-9 {
			t.Fatalf("covariate not on unit sphere: %v", vec.Norm2(p.X))
		}
		if p.Y*vec.Dot(p.X, truth) > 0 {
			agree++
		}
	}
	if float64(agree)/n < 0.7 {
		t.Fatalf("labels agree with the separator only %v of the time", float64(agree)/n)
	}
}

func TestMixtureFractionAndOracleTracking(t *testing.T) {
	src := randx.NewSource(6)
	truth := make(vec.Vector, 20)
	truth[0] = 0.5
	inGen, _ := NewLinearModel(truth, 0.01, 2, src.Split())
	outGen, _ := NewLinearModel(truth, 0.01, 0, src.Split())
	mix, err := NewMixture(inGen, outGen, 0.3, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	// In-domain points are 2-sparse; the dense outliers are told apart by
	// their support.
	outliers := 0
	const n = 3000
	for i := 0; i < n; i++ {
		if vec.NumNonzero(mix.Next().X) != 2 {
			outliers++
		}
	}
	frac := float64(outliers) / n
	if math.Abs(frac-0.3) > 0.04 {
		t.Fatalf("outlier fraction %v, want 0.3", frac)
	}
	if _, err := NewMixture(inGen, outGen, 1.5, src); err == nil {
		t.Fatal("fraction > 1 should error")
	}
	if _, err := NewMixture(nil, outGen, 0.1, src); err == nil {
		t.Fatal("nil component should error")
	}
}

func TestAdaptiveShrinksProbeNorm(t *testing.T) {
	// The adaptive stream picks covariates whose probe image is small; its
	// average probe-norm ratio must be below that of i.i.d. covariates.
	src := randx.NewSource(7)
	d := 40
	// A probe that halves the first 20 coordinates.
	probe := func(x vec.Vector) vec.Vector {
		out := x.Clone()
		for i := 0; i < d/2; i++ {
			out[i] *= 0.25
		}
		return out
	}
	truth := make(vec.Vector, d)
	truth[0] = 0.5
	adv, err := NewAdaptive(truth, 2, probe, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	iid, _ := NewLinearModel(truth, 0.01, 2, src.Split())
	ratio := func(x vec.Vector) float64 { return vec.Norm2(probe(x)) / vec.Norm2(x) }
	var advSum, iidSum float64
	const n = 300
	for i := 0; i < n; i++ {
		advSum += ratio(adv.Next().X)
		iidSum += ratio(iid.Next().X)
	}
	if advSum/n >= iidSum/n {
		t.Fatalf("adaptive stream is not adversarial: adaptive ratio %v vs iid %v", advSum/n, iidSum/n)
	}
	if _, err := NewAdaptive(truth, 2, nil, src); err == nil {
		t.Fatal("nil probe should error")
	}
}

func TestCollect(t *testing.T) {
	src := randx.NewSource(8)
	gen, _ := NewLinearModel(vec.Vector{0.5, 0.5}, 0.1, 0, src)
	data := Collect(gen, 17)
	if len(data) != 17 {
		t.Fatalf("Collect returned %d points", len(data))
	}
	for _, p := range data {
		if len(p.X) != 2 {
			t.Fatal("wrong covariate dimension")
		}
	}
}
