// Package experiments defines the reproduction experiments of the benchmark
// harness: one experiment per row of Table 1 of the paper plus the supporting
// propositions (Tree Mechanism error, noisy projected gradient convergence,
// Gordon embedding / lifting) and the ablations A1–A5. Each experiment produces
// a plain-text table and, where meaningful, scaling-exponent fits printed next
// to the paper's predicted exponents.
//
// The experiments are exercised three ways: by cmd/privreg-bench (full sweeps),
// by the top-level testing.B benchmarks in bench_test.go (reduced "quick"
// sweeps so `go test -bench=.` stays fast), and by integration tests that
// assert the qualitative shape (who wins, what grows, what stays flat).
package experiments

import (
	"fmt"
	"sort"

	"privreg/internal/constraint"
	"privreg/internal/core"
	"privreg/internal/dp"
	"privreg/internal/erm"
	"privreg/internal/loss"
	"privreg/internal/metrics"
	"privreg/internal/stream"
	"privreg/internal/vec"
)

// Options configures an experiment run.
type Options struct {
	// Trials is the number of independent repetitions averaged per
	// configuration (default 3, 1 in quick mode).
	Trials int
	// Seed seeds all randomness.
	Seed int64
	// Quick shrinks every sweep so the experiment completes in well under a
	// second; used by the testing.B benchmarks and the test suite.
	Quick bool
	// Epsilon and Delta are the privacy budget (defaults 1.0 and 1e-6).
	Epsilon, Delta float64
	// Workers bounds the worker pool that independent (configuration, trial)
	// cells of each sweep run on. Non-positive selects GOMAXPROCS. Every cell
	// derives its randomness from Seed alone and results are reduced in a fixed
	// order, so the output tables are byte-identical for any Workers value.
	Workers int
}

func (o *Options) fill() {
	if o.Trials <= 0 {
		o.Trials = 3
		if o.Quick {
			o.Trials = 1
		}
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1
	}
	if o.Delta <= 0 {
		o.Delta = 1e-6
	}
}

func (o Options) privacy() dp.Params { return dp.Params{Epsilon: o.Epsilon, Delta: o.Delta} }

// Result is the outcome of one experiment.
type Result struct {
	// ID is the experiment identifier (E1..E10 or an ablation name).
	ID string
	// Title restates what the experiment reproduces.
	Title string
	// Table is the rendered measurement table.
	Table *metrics.Table
	// Slopes maps a label (e.g. "reg1 vs d") to a fitted log–log scaling
	// exponent, where applicable.
	Slopes map[string]float64
	// Notes carries qualitative observations (who wins, crossovers, ...).
	Notes []string
}

// String renders the result for the CLI.
func (r *Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Table.String())
	if len(r.Slopes) > 0 {
		keys := make([]string, 0, len(r.Slopes))
		for k := range r.Slopes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s += fmt.Sprintf("fit: %-28s slope=%.3f\n", k, r.Slopes[k])
		}
	}
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// Runner is an experiment entry point.
type Runner func(Options) (*Result, error)

// Registry maps experiment IDs to runners, in presentation order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"E1", Table1Row1GenericConvex},
		{"E2", Table1Row2StronglyConvex},
		{"E3", Table1Row3Mech1},
		{"E4", Table1Row3Mech2},
		{"E5", NaiveVsGeneric},
		{"E6", TreeMechanismError},
		{"E7", NoisyPGDConvergence},
		{"E8", GordonEmbeddingAndLifting},
		{"E9", RobustMixedDomain},
		{"E10", PrivacySanity},
		{"A1", AblationTreeVsNaiveSum},
		{"A2", AblationWarmStart},
		{"A3", AblationProjScaling},
		{"A4", AblationTau},
		{"A5", AblationSketchBackend},
	}
}

// Run executes a single experiment by ID.
func Run(id string, opts Options) (*Result, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run(opts)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// All executes every registered experiment in order, stopping at the first
// error.
func All(opts Options) ([]*Result, error) {
	var out []*Result
	for _, e := range Registry() {
		r, err := e.Run(opts)
		if err != nil {
			return out, fmt.Errorf("experiments: %s failed: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// regressionCurve feeds a stream of length horizon into a regression mechanism
// and an exact constrained oracle built over the same constraint set,
// evaluating excess risk at the given checkpoint timesteps. It returns the
// maximum excess risk over the checkpoints (the Definition-1 quantity) and the
// final exact minimum risk (OPT).
func regressionCurve(est core.Estimator, oracle *core.NonPrivateIncremental, gen stream.Generator, horizon int, checkpoints []int) (maxExcess, finalOpt float64, err error) {
	cpSet := make(map[int]bool, len(checkpoints))
	for _, c := range checkpoints {
		cpSet[c] = true
	}
	for t := 1; t <= horizon; t++ {
		p := gen.Next()
		if err := observe(est, p); err != nil {
			return 0, 0, err
		}
		if err := observe(oracle, p); err != nil {
			return 0, 0, err
		}
		if cpSet[t] {
			theta, err := est.Estimate()
			if err != nil {
				return 0, 0, err
			}
			exact, err := oracle.Estimate()
			if err != nil {
				return 0, 0, err
			}
			excess := oracle.Risk(theta) - oracle.Risk(exact)
			if excess > maxExcess {
				maxExcess = excess
			}
			if t == horizon {
				finalOpt = oracle.Risk(exact)
			}
		}
	}
	return maxExcess, finalOpt, nil
}

// checkpointsFor returns a small set of evaluation timesteps: powers of two up
// to the horizon plus the horizon itself.
func checkpointsFor(horizon int) []int {
	var cps []int
	for t := 1; t < horizon; t *= 2 {
		cps = append(cps, t)
	}
	cps = append(cps, horizon)
	return cps
}

// excessAtHorizon evaluates a mechanism's excess risk only at the final
// timestep against an exact constrained oracle sharing the mechanism's
// constraint set. It is the cheaper evaluation most sweeps use.
func excessAtHorizon(est core.Estimator, oracle *core.NonPrivateIncremental, gen stream.Generator, horizon int) (excess, opt float64, err error) {
	for t := 1; t <= horizon; t++ {
		p := gen.Next()
		if err := observe(est, p); err != nil {
			return 0, 0, err
		}
		if err := observe(oracle, p); err != nil {
			return 0, 0, err
		}
	}
	theta, err := est.Estimate()
	if err != nil {
		return 0, 0, err
	}
	exact, err := oracle.Estimate()
	if err != nil {
		return 0, 0, err
	}
	opt = oracle.Risk(exact)
	excess = oracle.Risk(theta) - opt
	if excess < 0 {
		excess = 0
	}
	return excess, opt, nil
}

// observe feeds one stream point to est as a one-row batch.
func observe(est core.Estimator, p loss.Point) error {
	return est.ObserveRows(p.X, []float64{p.Y})
}

// genericExcess evaluates the excess risk of a general-loss mechanism at the
// final timestep using an exact batch solve on the collected data.
func genericExcess(est core.Estimator, f loss.Function, c constraint.Set, data []loss.Point) (float64, error) {
	for _, p := range data {
		if err := observe(est, p); err != nil {
			return 0, err
		}
	}
	theta, err := est.Estimate()
	if err != nil {
		return 0, err
	}
	return batchExcess(theta, f, c, data)
}

// trivialExcess is the excess risk of the data-independent mechanism of
// Section 1.1, which releases the projection of the origin onto C at every
// timestep: it is perfectly private, its excess risk is at most 2TL‖C‖, and
// it anchors the "min{·, T}" part of every bound in Table 1.
func trivialExcess(f loss.Function, c constraint.Set, data []loss.Point) (float64, error) {
	origin := vec.NewVector(c.Dim())
	c.ProjectInto(origin, origin, nil)
	return batchExcess(origin, f, c, data)
}

// batchExcess is theta's excess empirical risk on data over the exact batch
// minimizer in C, floored at 0.
func batchExcess(theta vec.Vector, f loss.Function, c constraint.Set, data []loss.Point) (float64, error) {
	exact, err := erm.Exact(f, c, data)
	if err != nil {
		return 0, err
	}
	excess := loss.Empirical(f, theta, data) - loss.Empirical(f, exact, data)
	if excess < 0 {
		excess = 0
	}
	return excess, nil
}
