// High-dimensional private Lasso over a stream of sparse covariates.
//
// This is the regime Section 5 of the paper targets: the ambient dimension is
// large (d = 1000 here), but the covariates are sparse and the constraint set
// is an L1 ball, so the combined Gaussian width W = w(X) + w(C) is tiny
// compared to √d. The projected mechanism (Algorithm PRIVINCREG2) sketches the
// stream into m ≪ d dimensions chosen from W, adds its privacy noise there,
// and lifts solutions back — yielding far less noise than the √d-scaled
// gradient mechanism (Algorithm PRIVINCREG1), which is also run for
// comparison.
//
// Run with:
//
//	go run ./examples/lasso_sparse
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"privreg"
)

func main() {
	const (
		dim      = 1000
		sparsity = 5
		horizon  = 400
		epsilon  = 1.0
		delta    = 1e-6
	)

	cons := privreg.L1Constraint(dim, 1.0) // Lasso constraint
	domain := privreg.SparseDomain(dim, sparsity)
	fmt.Printf("d=%d, k=%d-sparse covariates\n", dim, sparsity)
	fmt.Printf("Gaussian widths: w(C)=%.2f (L1 ball), w(X)=%.2f (sparse), √d=%.2f\n\n",
		cons.GaussianWidth(), domain.GaussianWidth(), math.Sqrt(float64(dim)))

	base := []privreg.Option{
		privreg.WithEpsilonDelta(epsilon, delta),
		privreg.WithHorizon(horizon),
		privreg.WithConstraint(cons),
		privreg.WithSeed(7),
	}
	projected, err := privreg.New("projected", append(base, privreg.WithDomain(domain))...)
	if err != nil {
		log.Fatal(err)
	}
	gradient, err := privreg.New("gradient", base...)
	if err != nil {
		log.Fatal(err)
	}

	// Sparse ground truth inside the L1 ball.
	rng := rand.New(rand.NewSource(3))
	truth := make([]float64, dim)
	support := []int{10, 200, 431, 670, 999}
	for _, i := range support {
		truth[i] = 0.18
	}

	var xs [][]float64
	var ys []float64
	for t := 1; t <= horizon; t++ {
		x := sparseCovariate(rng, dim, sparsity)
		var y float64
		for i, v := range x {
			y += v * truth[i]
		}
		y += 0.02 * rng.NormFloat64()
		xs = append(xs, x)
		ys = append(ys, y)
		if err := projected.Observe(x, y); err != nil {
			log.Fatal(err)
		}
		if err := gradient.Observe(x, y); err != nil {
			log.Fatal(err)
		}
	}

	thetaProj, err := projected.Estimate()
	if err != nil {
		log.Fatal(err)
	}
	thetaGrad, err := gradient.Estimate()
	if err != nil {
		log.Fatal(err)
	}
	excessProj, _ := privreg.ExcessRisk(cons, xs, ys, thetaProj)
	excessGrad, _ := privreg.ExcessRisk(cons, xs, ys, thetaGrad)

	fmt.Printf("after %d observations:\n", horizon)
	fmt.Printf("  %-34s excess risk = %.4f\n", projected.Name()+" (Algorithm 3, sketched)", excessProj)
	fmt.Printf("  %-34s excess risk = %.4f\n", gradient.Name()+" (Algorithm 2, full-dim)", excessGrad)
	fmt.Println("\nthe projected mechanism's noise scales with the Gaussian width, not with √d,")
	fmt.Println("which is why it is the right tool for high-dimensional sparse problems")
}

func sparseCovariate(rng *rand.Rand, dim, k int) []float64 {
	x := make([]float64, dim)
	perm := rng.Perm(dim)
	mag := 1 / math.Sqrt(float64(k))
	for i := 0; i < k; i++ {
		if rng.Intn(2) == 0 {
			x[perm[i]] = mag
		} else {
			x[perm[i]] = -mag
		}
	}
	return x
}
