package privreg_test

import (
	"fmt"
	"math"

	"privreg"
)

// ExampleNew demonstrates the registry construction path: mechanisms are
// selected by name and configured with functional options, so a deployment
// can drive mechanism choice from a config file.
func ExampleNew() {
	est, err := privreg.New("gradient",
		privreg.WithEpsilonDelta(1, 1e-6),
		privreg.WithHorizon(64),
		privreg.WithConstraint(privreg.L2Constraint(4, 1.0)),
		privreg.WithSeed(1),
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Batched ingestion is bit-identical to a scalar Observe loop.
	xs := [][]float64{{0.5, 0.2, 0, 0}, {0.1, 0, 0.3, 0}}
	ys := []float64{0.13, 0.03}
	if err := est.ObserveBatch(xs, ys); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("mechanism:", est.Mechanism())
	fmt.Println("observations:", est.Len())
	fmt.Println("registry:", privreg.Mechanisms())
	// Output:
	// mechanism: gradient
	// observations: 2
	// registry: [gradient projected robust-projected generic-erm naive-recompute multi-outcome nonprivate]
}

// ExampleNewPool demonstrates the multi-stream manager: one private estimator
// per stream ID, created lazily, safe for concurrent use, with per-stream
// checkpoint/restore through exported segments.
func ExampleNewPool() {
	pool, err := privreg.NewPool("gradient",
		privreg.WithEpsilonDelta(1, 1e-6),
		privreg.WithHorizon(64),
		privreg.WithConstraint(privreg.L2Constraint(4, 1.0)),
		privreg.WithSeed(1),
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Rows arrive flat: covariates row-major (rows×dim), one response per row.
	x, y := []float64{0.4, 0, 0.1, 0}, []float64{0.2}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("user-%d", i%2)
		if err := pool.ObserveFlat(id, len(x), x, y); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	st := pool.Stats()
	fmt.Println("streams:", st.Streams, "observations:", st.Observations)

	// Copy every stream into a fresh pool built from the same template; each
	// continues bit-identically. (A pool built WithSpillDir persists with
	// Flush instead, and a pool reopened on the directory restores it.)
	fresh, err := privreg.NewPool("gradient",
		privreg.WithEpsilonDelta(1, 1e-6),
		privreg.WithHorizon(64),
		privreg.WithConstraint(privreg.L2Constraint(4, 1.0)),
		privreg.WithSeed(1),
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, id := range pool.Streams() {
		seg, n, err := pool.ExportSegment(id)
		if err == nil {
			_, err = fresh.ImportSegment(seg, n)
		}
		if err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	fmt.Println("restored streams:", fresh.Stats().Streams)
	// Output:
	// streams: 2 observations: 6
	// restored streams: 2
}

// ExampleNew_gradient demonstrates the streaming workflow: observe points one
// at a time and read a differentially private estimate whenever one is
// needed.
func ExampleNew_gradient() {
	cons := privreg.L2Constraint(4, 1.0)
	est, err := privreg.New("gradient",
		privreg.WithEpsilonDelta(1, 1e-6),
		privreg.WithHorizon(64),
		privreg.WithConstraint(cons),
		privreg.WithSeed(1),
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for t := 0; t < 64; t++ {
		x := []float64{0.5, 0.2, 0, 0}
		y := 0.3*x[0] - 0.1*x[1]
		if err := est.Observe(x, y); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	theta, err := est.Estimate()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("observations:", est.Len())
	fmt.Println("estimate dimension:", len(theta))
	fmt.Println("estimate feasible:", cons.Contains(theta, 1e-6))
	// Output:
	// observations: 64
	// estimate dimension: 4
	// estimate feasible: true
}

// ExampleNew_projected shows the width-driven mechanism for a
// high-dimensional sparse problem with a Lasso constraint.
func ExampleNew_projected() {
	d := 256
	cons := privreg.L1Constraint(d, 1.0)
	est, err := privreg.New("projected",
		privreg.WithEpsilonDelta(1, 1e-6),
		privreg.WithHorizon(32),
		privreg.WithConstraint(cons),
		privreg.WithDomain(privreg.SparseDomain(d, 3)),
		privreg.WithSeed(2),
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	x := make([]float64, d)
	x[7] = 1 / math.Sqrt(2)
	x[90] = 1 / math.Sqrt(2)
	for t := 0; t < 32; t++ {
		if err := est.Observe(x, 0.2); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	theta, err := est.Estimate()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("estimate feasible:", cons.Contains(theta, 1e-4))
	fmt.Println("width of constraint below sqrt(d):", cons.GaussianWidth() < math.Sqrt(float64(d)))
	// Output:
	// estimate feasible: true
	// width of constraint below sqrt(d): true
}

// ExampleExcessRisk evaluates an estimate against the best constrained fit on
// a prefix, which is the quantity the paper's guarantees bound.
func ExampleExcessRisk() {
	cons := privreg.L2Constraint(2, 1.0)
	xs := [][]float64{{1, 0}, {0, 1}, {1, 0}}
	ys := []float64{0.4, -0.2, 0.4}
	excess, err := privreg.ExcessRisk(cons, xs, ys, []float64{0.4, -0.2})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("excess of the exact fit: %.4f\n", excess)
	// Output:
	// excess of the exact fit: 0.0000
}
