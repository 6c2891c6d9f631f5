package core

import (
	"math"
	"testing"

	"privreg/internal/constraint"
	"privreg/internal/erm"
	"privreg/internal/loss"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// Allocation-regression guards for the sufficient-statistics mechanisms and
// the paper's regression mechanisms. On the quadratic path, Observe folds a
// point through a reused clamp buffer into preallocated moment statistics
// (zero allocations), ObserveBatch and ObserveMultiFlat are the same loop,
// and a non-boundary Estimate only clones the memoized vector. The regression
// mechanisms fold svec(x xᵀ) through a reused buffer into their trees'
// preallocated level slabs. A failure here means a scratch buffer stopped
// being reused or the fold path regressed to per-point cloning.

// allocMechs names the mechanisms under audit.
var allocMechs = []string{"generic-erm", "naive-recompute", "multi-outcome", "nonprivate", "gradient", "projected", "robust-projected"}

// observeBudget is the allocation budget of one Observe, or of one
// ObserveBatch of 32 rows: the regression mechanisms' folds have no boundary
// snapshots and are pinned at zero, rows the robust oracle rejects included.
func observeBudget(name string, slowPath int) int {
	switch name {
	case "gradient", "projected", "robust-projected":
		return 0
	}
	return slowPath
}

// allocMech builds the named mechanism (d = 16; k = 4 for multi-outcome) and
// an ingest function for a fixed run of rows drawn once: single-outcome
// mechanisms take a single row through Observe and longer runs through
// ObserveBatch, multi-outcome takes every run flat through ObserveMultiFlat.
func allocMech(t testing.TB, name string, rows int) (Estimator, func() error) {
	t.Helper()
	const d, k = 16, 4
	cons := constraint.NewL2Ball(d, 1)
	driver := randx.NewSource(91)
	batch := erm.PrivateBatchOptions{Iterations: 8}
	var mech Estimator
	var err error
	switch name {
	case "generic-erm":
		mech, err = NewGenericERM(loss.Squared{}, cons, privacy(), 1<<20, randx.NewSource(4),
			GenericOptions{Tau: 64, Batch: batch})
	case "naive-recompute":
		mech, err = NewNaiveRecompute(loss.Squared{}, cons, privacy(), 1<<20, randx.NewSource(4),
			GenericOptions{Batch: batch})
	case "multi-outcome":
		m, err := NewMultiOutcome(cons, k, privacy(), 1<<20, randx.NewSource(4),
			GenericOptions{Tau: 64, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		xs := driver.NormalVector(rows*d, 0.3)
		ys := driver.NormalVector(rows*k, 0.5)
		return m, func() error { return m.ObserveMultiFlat(xs, ys) }
	case "nonprivate":
		mech = NewNonPrivateIncremental(cons, 0)
	case "gradient":
		mech, err = NewGradientRegression(cons, privacy(), 1<<20, randx.NewSource(4), RegressionOptions{})
	case "projected":
		mech, err = NewProjectedRegression(cons, cons, privacy(), 1<<20, randx.NewSource(4),
			ProjectedOptions{ProjectionDim: d / 2})
	case "robust-projected":
		// The oracle rejects rows with a positive first covariate: about half
		// of a batch, and the single Observe row (made positive below).
		oracle := func(x vec.Vector) bool { return x[0] <= 0 }
		mech, err = NewRobustProjectedRegression(cons, cons, oracle, privacy(), 1<<20, randx.NewSource(4),
			ProjectedOptions{ProjectionDim: d / 2})
	default:
		t.Fatalf("unknown mechanism %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]loss.Point, rows)
	for i := range ps {
		ps[i] = loss.Point{X: vec.Vector(driver.NormalVector(d, 0.3)), Y: driver.Normal(0, 0.5)}
	}
	if rows == 1 {
		if name == "robust-projected" {
			ps[0].X[0] = math.Abs(ps[0].X[0]) + 0.1
		}
		return mech, func() error { return mech.Observe(ps[0]) }
	}
	return mech, func() error { return mech.ObserveBatch(ps) }
}

func TestSlowPathObserveAllocs(t *testing.T) {
	for _, name := range allocMechs {
		t.Run(name, func(t *testing.T) {
			_, observe := allocMech(t, name, 1)
			run := func() {
				if err := observe(); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm up lazy buffers
			// The quadratic fold path allocates nothing: clamp into the reused
			// buffer, rank-one update into the packed triangle. The budget of 1
			// covers boundary snapshots (a pending stats copy is in-place, but
			// leaves headroom for runtime drift).
			budget := observeBudget(name, 1)
			if allocs := testing.AllocsPerRun(200, run); allocs > float64(budget) {
				t.Fatalf("Observe allocates %.1f times per point, budget %d", allocs, budget)
			}
		})
	}
}

func TestSlowPathObserveBatchAllocs(t *testing.T) {
	for _, name := range allocMechs {
		t.Run(name, func(t *testing.T) {
			_, observe := allocMech(t, name, 32)
			run := func() {
				if err := observe(); err != nil {
					t.Fatal(err)
				}
			}
			run()
			// Whole-batch budget, not per point: the fold loop itself is
			// allocation-free.
			budget := observeBudget(name, 2)
			if allocs := testing.AllocsPerRun(100, run); allocs > float64(budget) {
				t.Fatalf("ObserveBatch(32) allocates %.1f times per batch, budget %d", allocs, budget)
			}
		})
	}
}

func TestSlowPathEstimateAllocs(t *testing.T) {
	for _, name := range allocMechs {
		t.Run(name, func(t *testing.T) {
			mech, observe := allocMech(t, name, 1)
			for i := 0; i < 10; i++ {
				if err := observe(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := mech.Estimate(); err != nil { // settle any pending solve
				t.Fatal(err)
			}
			run := func() {
				if _, err := mech.Estimate(); err != nil {
					t.Fatal(err)
				}
			}
			// A settled Estimate is one memo clone.
			const budget = 1
			if allocs := testing.AllocsPerRun(200, run); allocs > budget {
				t.Fatalf("settled Estimate allocates %.1f times, budget %d", allocs, budget)
			}
		})
	}
}

// coldRead returns a function that folds one new row into the named
// regression mechanism (d = 32, T = 2^19, after 1,000 rows) and reads it, so
// every call is a cold solve; a "projected" read stops before the lift, a
// "projected+lift" read is the full Estimate. Both solve over an L2 ball, so
// the solve is the exact trust-region read.
func coldRead(t *testing.T, name string) func() {
	t.Helper()
	const d = 32
	cons := constraint.NewL2Ball(d, 1)
	var mech Estimator
	estimate := func() error { _, err := mech.Estimate(); return err }
	switch name {
	case "gradient":
		g, err := NewGradientRegression(cons, privacy(), 1<<19, randx.NewSource(4), RegressionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mech = g
	case "projected", "projected+lift":
		r, err := NewProjectedRegression(cons, cons, privacy(), 1<<19, randx.NewSource(4),
			ProjectedOptions{ProjectionDim: d / 2})
		if err != nil {
			t.Fatal(err)
		}
		mech = r
		if name == "projected" {
			estimate = func() error { _, err := r.estimate(nil); return err }
		}
	}
	driver := randx.NewSource(92)
	p := loss.Point{X: vec.Vector(driver.NormalVector(d, 0.3)), Y: driver.Normal(0, 0.5)}
	for i := 0; i < 1000; i++ {
		if err := mech.Observe(p); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		if err := mech.Observe(p); err != nil {
			t.Fatal(err)
		}
		if err := estimate(); err != nil {
			t.Fatal(err)
		}
	}
	read() // allocate the read workspaces
	return read
}

// TestColdReadAllocs pins the cold regression read: one new row, then the
// solve. It runs in the core's reused workspaces, so the read allocates only
// the released vector. A full projected Estimate adds the lift, whose FISTA
// workspace is allocated once per lift and whose scaled constraint sets are
// allocated once per feasibility check.
func TestColdReadAllocs(t *testing.T) {
	budgets := map[string]float64{"gradient": 2, "projected": 2, "projected+lift": 27}
	for _, name := range []string{"gradient", "projected", "projected+lift"} {
		if allocs := testing.AllocsPerRun(50, coldRead(t, name)); allocs > budgets[name] {
			t.Fatalf("cold %s read allocates %.1f times, budget %.0f", name, allocs, budgets[name])
		}
	}
}
