// Robust private incremental regression when only part of the stream comes
// from a well-behaved domain (§5.2 of the paper).
//
// The projected mechanism's dimension-free guarantees need covariates from a
// small-Gaussian-width domain G (here: sparse vectors). Real streams are
// messier: some fraction of arrivals are dense outliers. The §5.2 extension
// keeps the guarantee for the in-domain points by consulting a membership
// oracle and neutralizing rejected points *before* they touch private state —
// which, unlike simply skipping them, preserves the privacy accounting.
//
// Run with:
//
//	go run ./examples/robust_mixed
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"privreg"
)

const (
	dim      = 200
	sparsity = 4
	horizon  = 300
	epsilon  = 1.0
	delta    = 1e-6
	outlierP = 0.3 // fraction of dense, out-of-domain covariates
)

func main() {
	cons := privreg.L1Constraint(dim, 1.0)
	domain := privreg.SparseDomain(dim, sparsity)

	// The oracle accepts covariates that are (close to) sparse.
	oracle := func(x []float64) bool {
		nz := 0
		for _, v := range x {
			if v != 0 {
				nz++
			}
		}
		return nz <= 2*sparsity
	}

	base := []privreg.Option{
		privreg.WithEpsilonDelta(epsilon, delta),
		privreg.WithHorizon(horizon),
		privreg.WithConstraint(cons),
		privreg.WithDomain(domain),
		privreg.WithSeed(29),
	}
	robust, err := privreg.New("robust-projected", append(base, privreg.WithDomainOracle(oracle))...)
	if err != nil {
		log.Fatal(err)
	}
	plain, err := privreg.New("projected", base...)
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth supported on a few coordinates.
	truth := make([]float64, dim)
	truth[3], truth[57], truth[120], truth[199] = 0.25, -0.25, 0.25, 0.25

	rng := rand.New(rand.NewSource(31))
	var inXs [][]float64
	var inYs []float64
	outliers := 0
	for t := 1; t <= horizon; t++ {
		var x []float64
		if rng.Float64() < outlierP {
			x = denseCovariate(rng)
			outliers++
		} else {
			x = sparseCovariate(rng)
		}
		var y float64
		for i, v := range x {
			y += v * truth[i]
		}
		y += 0.02 * rng.NormFloat64()
		if oracle(x) {
			inXs = append(inXs, x)
			inYs = append(inYs, y)
		}
		if err := robust.Observe(x, y); err != nil {
			log.Fatal(err)
		}
		if err := plain.Observe(x, y); err != nil {
			log.Fatal(err)
		}
	}

	thetaRobust, err := robust.Estimate()
	if err != nil {
		log.Fatal(err)
	}
	thetaPlain, err := plain.Estimate()
	if err != nil {
		log.Fatal(err)
	}
	excessRobust, _ := privreg.ExcessRisk(cons, inXs, inYs, thetaRobust)
	excessPlain, _ := privreg.ExcessRisk(cons, inXs, inYs, thetaPlain)

	fmt.Printf("stream: %d points, %d dense outliers (%.0f%%), d=%d, k=%d\n\n",
		horizon, outliers, 100*float64(outliers)/float64(horizon), dim, sparsity)
	fmt.Println("excess empirical risk measured on the in-domain points only:")
	fmt.Printf("  %-28s %.4f\n", robust.Name(), excessRobust)
	fmt.Printf("  %-28s %.4f\n", plain.Name(), excessPlain)
	fmt.Println("\nthe robust mechanism neutralizes out-of-domain covariates before they reach")
	fmt.Println("private state, so its guarantee on the in-domain risk survives the contamination")
}

func sparseCovariate(rng *rand.Rand) []float64 {
	x := make([]float64, dim)
	perm := rng.Perm(dim)
	mag := 1 / math.Sqrt(float64(sparsity))
	for i := 0; i < sparsity; i++ {
		if rng.Intn(2) == 0 {
			x[perm[i]] = mag
		} else {
			x[perm[i]] = -mag
		}
	}
	return x
}

func denseCovariate(rng *rand.Rand) []float64 {
	x := make([]float64, dim)
	var norm float64
	for i := range x {
		x[i] = rng.NormFloat64()
		norm += x[i] * x[i]
	}
	norm = math.Sqrt(norm)
	for i := range x {
		x[i] /= norm
	}
	return x
}
