// Package privreg is a Go implementation of differentially private incremental
// (streaming) empirical risk minimization and linear regression, reproducing
// the mechanisms and guarantees of
//
//	"Private Incremental Regression"
//	Shiva Prasad Kasiviswanathan, Kobbi Nissim, Hongxia Jin
//	PODS 2017 (arXiv:1701.01093)
//
// The problem: data points (x_t, y_t) arrive one at a time, and at every
// timestep the mechanism must publish an estimate of the constrained empirical
// risk minimizer over the entire history observed so far — while the whole
// sequence of published estimates is (ε, δ)-differentially private with
// respect to changing any single data point in the stream (event-level
// privacy).
//
// # Construction
//
// Mechanisms are selected from a registry by name and configured with
// functional options, so deployments can pick mechanisms from config files:
//
//	est, err := privreg.New("gradient",
//	    privreg.WithEpsilonDelta(1.0, 1e-6),
//	    privreg.WithHorizon(100_000),
//	    privreg.WithConstraint(privreg.L2Constraint(16, 1)),
//	    privreg.WithSeed(42),
//	)
//	if err != nil { ... }
//	for t := 0; t < 100_000; t++ {
//	    x, y := nextObservation()
//	    if err := est.Observe(x, y); err != nil { ... }
//	    theta, _ := est.Estimate() // private estimate for the prefix so far
//	    _ = theta
//	}
//
// Mechanisms lists the registered names; Describe returns aliases and
// per-mechanism requirements. The mechanisms, matching Table 1 of the paper:
//
//   - "gradient" (Algorithm PRIVINCREG1) maintains a private gradient function
//     for least squares with the Tree Mechanism and runs noisy projected
//     gradient descent at every estimate (excess risk ≈ √d, worst-case
//     optimal).
//   - "projected" (Algorithm PRIVINCREG2) additionally projects the data into
//     a low-dimensional sketch sized by the Gaussian widths of the covariate
//     domain and the constraint set, optimizes there, and lifts the solution
//     back (excess risk ≈ T^{1/3}·W^{2/3}, dimension-free for sparse/L1-ball
//     geometry). Requires WithDomain.
//   - "robust-projected" is the §5.2 extension: WithDomainOracle screens
//     covariates, rejected points are neutralized before touching private
//     state.
//   - "generic-erm" (Mechanism PRIVINCERM) converts any private batch ERM
//     algorithm into an incremental one by recomputing every τ steps, for any
//     supported loss (WithLoss).
//   - "naive-recompute" is the same mechanism with τ = 1 (a private re-solve at
//     every step); it and "nonprivate" are the baselines the experiments
//     compare against.
//
// Budgets are validated at this boundary: the Gaussian-noise mechanisms
// require ε > 0 and δ ∈ (0, 1) and fail construction otherwise.
//
// # Serving
//
// The package is engineered for long-running services (see docs/SERVING.md):
//
//   - Every ingest method is a shape adapter onto one flat row batch
//     (row-major covariates, k responses per row): batches are validated up
//     front, all-or-nothing (a row of the wrong dimension is an error, never
//     a panic), and aggregate the continual sums once, bit-identical to a
//     scalar Observe loop.
//   - Every estimator checkpoints via MarshalBinary/UnmarshalBinary: restore
//     into an identically configured instance and the continuation is
//     bit-identical to an uninterrupted run — restarts are invisible in the
//     published sequence.
//   - Pool manages one estimator per stream ID with sharded locking, lazy
//     stream creation, per-stream derived seeds, flat-row ingest
//     (ObserveMultiFlat, and ObserveFlat for one outcome), Stats snapshots,
//     incremental checkpoints to a spill directory (Flush), and per-stream
//     ExportSegment/ImportSegment.
//
// # Performance
//
// The streaming hot path is engineered for sustained throughput (see
// docs/PERFORMANCE.md for the benchmark record): per-timestep updates are
// allocation-free in steady state, a regression stream keeps its moments as
// exact sums and adds the Tree Mechanism's noise only when an estimate is
// requested, Gaussian noise is drawn with a
// vectorized sampler, and the experiment harness runs sweeps on a bounded
// worker pool with results byte-identical to a serial run.
//
// Non-private and naive-private baselines, constraint-set geometry (L1/L2/Lp
// balls, simplex, polytopes, group-L1 balls, sparse domains), synthetic stream
// generators, and a full benchmark harness reproducing the shape of every
// bound in the paper are included: `privreg-bench -experiment all` prints the
// paper-versus-measured tables.
package privreg
