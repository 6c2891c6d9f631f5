package privreg

import (
	"fmt"
	"runtime"
	"testing"

	"privreg/internal/constraint"
	"privreg/internal/dp"
	"privreg/internal/experiments"
	"privreg/internal/randx"
	"privreg/internal/sketch"
	"privreg/internal/tree"
	"privreg/internal/vec"
)

// The benchmarks below come in two groups.
//
// The first group regenerates the paper's evaluation artifacts — one benchmark
// per Table-1 row, per supporting proposition, and per ablation — by invoking
// the experiment harness in quick mode (reduced sweeps). Run
// `go run ./cmd/privreg-bench -experiment all` for the full sweeps and their
// tables; the benchmarks here keep the same workloads wired into
// `go test -bench=.` so regressions in either correctness or cost are caught.
//
// The second group contains micro-benchmarks of the hot paths (Tree Mechanism
// updates, projections, per-timestep mechanism updates and estimates).

func benchOpts(i int) experiments.Options {
	return experiments.Options{Quick: true, Trials: 1, Seed: int64(i + 1), Epsilon: 1, Delta: 1e-6}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Table == nil || len(res.Table.Rows) == 0 {
			b.Fatalf("%s produced an empty table", id)
		}
	}
}

// BenchmarkTable1Row1GenericConvex reproduces Table 1 row 1 (Theorem 3.1 part 1):
// the generic transformation on a convex (logistic) loss.
func BenchmarkTable1Row1GenericConvex(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkTable1Row2StronglyConvex reproduces Table 1 row 2 (Theorem 3.1 part 2):
// the generic transformation on a strongly convex (ridge) loss.
func BenchmarkTable1Row2StronglyConvex(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkTable1Row3Mech1 reproduces Table 1 row 3, Mechanism 1 (Theorem 4.2):
// PRIVINCREG1's ≈ √d excess risk.
func BenchmarkTable1Row3Mech1(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkTable1Row3Mech2 reproduces Table 1 row 3, Mechanism 2 (Theorem 5.7):
// PRIVINCREG2's width-driven excess risk on sparse/Lasso instances.
func BenchmarkTable1Row3Mech2(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkNaiveVsGeneric reproduces the Section 1/3 comparison of naive
// per-step recomputation against the τ-spaced generic transformation.
func BenchmarkNaiveVsGeneric(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkTreeMechanismError reproduces Proposition C.1: Tree Mechanism error
// growth with the stream length.
func BenchmarkTreeMechanismError(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkNoisyPGDConvergence reproduces Proposition B.1: noisy projected
// gradient convergence versus iterations and gradient-error level.
func BenchmarkNoisyPGDConvergence(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkGordonEmbeddingAndLifting reproduces Theorems 5.1 and 5.3: embedding
// distortion (including adaptive streams) and lifting error versus m.
func BenchmarkGordonEmbeddingAndLifting(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkRobustMixedDomain reproduces the §5.2 robust extension on
// mixed-domain streams.
func BenchmarkRobustMixedDomain(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkPrivacySanity runs the neighboring-stream output-shift sanity check
// of Definition 4.
func BenchmarkPrivacySanity(b *testing.B) { runExperiment(b, "E10") }

// BenchmarkAblationTreeVsNaiveSum compares the Tree Mechanism against naive
// per-step private sums (ablation A1).
func BenchmarkAblationTreeVsNaiveSum(b *testing.B) { runExperiment(b, "A1") }

// BenchmarkAblationWarmStart toggles optimizer warm-starting across timesteps
// (ablation A2).
func BenchmarkAblationWarmStart(b *testing.B) { runExperiment(b, "A2") }

// BenchmarkAblationProjScaling toggles the ‖x‖/‖Φx‖ covariate rescaling of the
// projected objective (ablation A3).
func BenchmarkAblationProjScaling(b *testing.B) { runExperiment(b, "A3") }

// BenchmarkAblationTau sweeps the recomputation period τ of the generic
// transformation (ablation A4).
func BenchmarkAblationTau(b *testing.B) { runExperiment(b, "A4") }

// BenchmarkAblationSketchBackend compares the dense and SRHT sketch backends
// inside PRIVINCREG2 on identical streams (ablation A5).
func BenchmarkAblationSketchBackend(b *testing.B) { runExperiment(b, "A5") }

// --- micro-benchmarks -------------------------------------------------------

// BenchmarkTreeMechanismAddNoiseTo measures the cost of adding the Tree
// Mechanism's release noise at each successive stream length, for vector
// dimensions of the order the regression mechanisms use (d and d(d+1)/2).
// Every call regenerates the noise of the popcount(t) nodes it sums, about
// half the tree's levels on average, so nothing is reused across calls. The
// allocs/op column must read 0 (guarded by TestTreeAddToZeroAlloc).
func BenchmarkTreeMechanismAddNoiseTo(b *testing.B) {
	for _, dim := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			src := randx.NewSource(1)
			mech, err := tree.New(tree.Config{
				Dim: dim, MaxLen: b.N + 1, Sensitivity: 2,
				Privacy: dp.Params{Epsilon: 1, Delta: 1e-6},
			}, src)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]float64, dim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				mech.AddNoiseTo(dst, i)
			}
		})
	}
}

// BenchmarkSketchApply compares the two sketch backends on the rescaled apply
// (the per-point hot operation of PRIVINCREG2) at the acceptance workload
// d=512, m=64: the dense Gaussian matvec is O(m·d) while the SRHT runs in
// O(d log d), so the SRHT should win by well over 3× here.
func BenchmarkSketchApply(b *testing.B) {
	const m, d = 64, 512
	for _, backend := range []sketch.Backend{sketch.BackendDense, sketch.BackendSRHT} {
		b.Run(fmt.Sprintf("%s/d=%d/m=%d", backend, d, m), func(b *testing.B) {
			src := randx.NewSource(10)
			tf, err := sketch.New(backend, m, d, src.Split())
			if err != nil {
				b.Fatal(err)
			}
			x := vec.Vector(src.SparseVector(d, 8))
			dst := vec.NewVector(m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tf.ScaledApplyTo(dst, x)
			}
		})
	}
}

// BenchmarkExperimentWorkers runs the same experiment sweep serially and on
// the default worker pool; the speedup column of docs/PERFORMANCE.md comes
// from here. The output tables are byte-identical either way (guarded by
// TestParallelWorkersDeterministic).
func BenchmarkExperimentWorkers(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("E6/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := experiments.Options{Quick: true, Trials: 8, Seed: 1, Epsilon: 1, Delta: 1e-6, Workers: workers}
				res, err := experiments.Run("E6", opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Table == nil || len(res.Table.Rows) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// BenchmarkProjection measures Euclidean projection cost for the main
// constraint sets, projecting into a held destination with a held scratch as
// the solvers' loops do.
func BenchmarkProjection(b *testing.B) {
	d := 256
	src := randx.NewSource(2)
	x := vec.Vector(src.NormalVector(d, 1))
	vertices := make([]vec.Vector, 32)
	for i := range vertices {
		vertices[i] = vec.Vector(src.NormalVector(d, 0.1))
	}
	sets := []constraint.Set{
		constraint.NewL2Ball(d, 1),
		constraint.NewBox(d, 0.05),
		constraint.NewL1Ball(d, 1),
		constraint.NewLpBall(d, 1.5, 1),
		constraint.NewSimplex(d, 1),
		constraint.NewGroupL1Ball(d, 8, 1),
		constraint.NewSparseSet(d, 8, 1),
		constraint.NewPolytope(vertices),
	}
	dst := vec.NewVector(d)
	var scratch constraint.Scratch
	for _, s := range sets {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.ProjectInto(dst, x, &scratch)
			}
		})
	}
}

// BenchmarkMechanismObserve measures the per-timestep update cost of the two
// regression mechanisms (the continual, privacy-critical path).
func BenchmarkMechanismObserve(b *testing.B) {
	for _, d := range []int{16, 64} {
		b.Run(fmt.Sprintf("reg1/d=%d", d), func(b *testing.B) {
			est, err := New("gradient",
				WithEpsilonDelta(1, 1e-6), WithHorizon(1<<20),
				WithConstraint(L2Constraint(d, 1)), WithSeed(3), WithUnknownHorizon())
			if err != nil {
				b.Fatal(err)
			}
			x := make([]float64, d)
			x[0] = 0.5
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := est.Observe(x, 0.3); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("reg2/d=%d", d), func(b *testing.B) {
			est, err := New("projected",
				WithEpsilonDelta(1, 1e-6), WithHorizon(1<<20),
				WithConstraint(L1Constraint(d, 1)), WithDomain(SparseDomain(d, 3)),
				WithSeed(4), WithUnknownHorizon())
			if err != nil {
				b.Fatal(err)
			}
			x := make([]float64, d)
			x[0] = 0.5
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := est.Observe(x, 0.3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMechanismEstimate measures a cold private estimate: every
// iteration observes one new row, so the read is never served from the
// memo, and then solves (and lifts, for the projected mechanism). reg1 solves
// over an L1 ball by projected gradient descent. The projected mechanism
// solves over its default domain, an L2 ball in the m-space, by the exact
// trust-region read, and then lifts onto C: an L1 ball for reg2-with-lift,
// an L2 ball for projected-l2. gradient-l2 reads exactly over an L2 ball at
// the serving shape d = 32, T = 2^19.
func BenchmarkMechanismEstimate(b *testing.B) {
	const d = 32
	run := func(b *testing.B, mech string, rows int, opts ...Option) {
		est, err := New(mech, append([]Option{WithEpsilonDelta(1, 1e-6), WithSeed(5)}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		src := randx.NewSource(6)
		for i := 0; i < rows; i++ {
			if err := est.Observe(src.SparseVector(d, 3), 0.2); err != nil {
				b.Fatal(err)
			}
		}
		x := src.SparseVector(d, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := est.Observe(x, 0.2); err != nil {
				b.Fatal(err)
			}
			if _, err := est.Estimate(); err != nil {
				b.Fatal(err)
			}
		}
	}
	l1 := func(b *testing.B) []Option {
		return []Option{WithHorizon(64 + b.N), WithConstraint(L1Constraint(d, 1)), WithDomain(SparseDomain(d, 3))}
	}
	l2 := func(b *testing.B) []Option {
		return []Option{WithHorizon(max(1<<19, 1000+b.N)), WithConstraint(L2Constraint(d, 1))}
	}
	b.Run("reg1", func(b *testing.B) { run(b, "gradient", 64, append(l1(b), WithMaxIterations(100))...) })
	b.Run("reg2-with-lift", func(b *testing.B) { run(b, "projected", 64, l1(b)...) })
	b.Run("gradient-l2/d=32/T=2^19", func(b *testing.B) { run(b, "gradient", 1000, l2(b)...) })
	b.Run("projected-l2/d=32/T=2^19", func(b *testing.B) {
		run(b, "projected", 1000, append(l2(b), WithDomain(SparseDomain(d, 3)))...)
	})
}

// BenchmarkObserveBatch compares scalar Observe against ObserveBatch on the
// public API: the batch path validates once and defers the Tree-Mechanism
// running-sum aggregation to the end of the batch.
func BenchmarkObserveBatch(b *testing.B) {
	const (
		d     = 32
		batch = 64
	)
	newEst := func() Estimator {
		// Unknown-horizon mode so the shared estimator never fills regardless
		// of b.N (a fixed horizon would cap the iteration count).
		est, err := New("gradient",
			WithEpsilonDelta(1, 1e-6),
			WithUnknownHorizon(),
			WithConstraint(L2Constraint(d, 1)),
			WithSeed(1),
		)
		if err != nil {
			b.Fatal(err)
		}
		return est
	}
	xs := make([][]float64, batch)
	ys := make([]float64, batch)
	for i := range xs {
		x := make([]float64, d)
		x[i%d] = 0.7
		xs[i] = x
		ys[i] = 0.3
	}
	b.Run("scalar", func(b *testing.B) {
		est := newEst()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				if err := est.Observe(xs[j], ys[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		est := newEst()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := est.ObserveBatch(xs, ys); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPoolFaultIn measures the spill store's worst case: a resident cap
// of 1 with two streams accessed alternately, so every Observe pays one full
// eviction (marshal + segment write) and one fault-in (segment read +
// unmarshal + rebuild). The gap to BenchmarkMechanismObserve is the price of
// a 100% cache miss; real skewed workloads sit in between (see
// docs/PERFORMANCE.md and docs/SERVING.md for capacity planning).
func BenchmarkPoolFaultIn(b *testing.B) {
	const d = 16
	newSpillPool := func(cap int) *Pool {
		p, err := NewPool("gradient",
			WithEpsilonDelta(1, 1e-6),
			WithUnknownHorizon(),
			WithConstraint(L2Constraint(d, 1)),
			WithSeed(1),
			WithSpillDir(b.TempDir()),
			WithStoreCap(cap),
		)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	x := make([]float64, d)
	x[0] = 0.5
	y := []float64{0.3}
	seed := func(p *Pool) {
		for _, id := range []string{"a", "b"} {
			for i := 0; i < 64; i++ {
				if err := p.ObserveFlat(id, d, x, y); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("thrash/cap=1", func(b *testing.B) {
		p := newSpillPool(1)
		seed(p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := "a"
			if i%2 == 1 {
				id = "b"
			}
			if err := p.ObserveFlat(id, d, x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("resident/cap=2", func(b *testing.B) {
		// Same workload with both streams resident: the no-spill baseline.
		p := newSpillPool(2)
		seed(p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := "a"
			if i%2 == 1 {
				id = "b"
			}
			if err := p.ObserveFlat(id, d, x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPoolIncrementalCheckpoint measures the dirty-checkpoint property:
// with N streams on disk, a Flush after touching M streams costs O(M) segment
// writes plus one manifest, not O(N). Compare dirty=8 against dirty=all at
// the same N.
func BenchmarkPoolIncrementalCheckpoint(b *testing.B) {
	const (
		d = 16
		n = 256
	)
	x := make([]float64, d)
	x[0] = 0.5
	build := func(b *testing.B) *Pool {
		p, err := NewPool("gradient",
			WithEpsilonDelta(1, 1e-6),
			WithUnknownHorizon(),
			WithConstraint(L2Constraint(d, 1)),
			WithSeed(1),
			WithSpillDir(b.TempDir()),
		)
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < n; s++ {
			id := fmt.Sprintf("bench-%03d", s)
			for i := 0; i < 16; i++ {
				if err := observe(p, id, x, 0.3); err != nil {
					b.Fatal(err)
				}
			}
		}
		if _, err := p.Flush(); err != nil {
			b.Fatal(err)
		}
		return p
	}
	for _, dirty := range []int{8, n} {
		b.Run(fmt.Sprintf("dirty=%d/streams=%d", dirty, n), func(b *testing.B) {
			p := build(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for s := 0; s < dirty; s++ {
					if err := observe(p, fmt.Sprintf("bench-%03d", s), x, 0.3); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				fs, err := p.Flush()
				if err != nil {
					b.Fatal(err)
				}
				if fs.Segments != dirty {
					b.Fatalf("flush wrote %d segments, want %d", fs.Segments, dirty)
				}
			}
		})
	}
}

// BenchmarkCheckpoint measures the cost of the checkpoint/restore cycle for
// the serving-relevant mechanisms (see docs/SERVING.md for the size model) and
// reports the blob size as ckpt_bytes. The T=2^19 case is the per-stream
// state of perfbench's http-read-write workload, which is what its spill
// store writes and faults back in.
func BenchmarkCheckpoint(b *testing.B) {
	const d = 32
	for _, tc := range []struct {
		name    string
		horizon int
	}{
		{"gradient/d=32/T=4096", 4096},
		{"gradient/d=32/T=2^19", 1 << 19},
	} {
		build := func(b *testing.B) Estimator {
			est, err := New("gradient",
				WithEpsilonDelta(1, 1e-6),
				WithHorizon(tc.horizon),
				WithConstraint(L2Constraint(d, 1)),
				WithSeed(1),
			)
			if err != nil {
				b.Fatal(err)
			}
			return est
		}
		b.Run(tc.name, func(b *testing.B) {
			est := build(b)
			x := make([]float64, d)
			x[0] = 0.5
			for i := 0; i < 512; i++ {
				if err := est.Observe(x, 0.2); err != nil {
					b.Fatal(err)
				}
			}
			blob, err := est.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			b.Run("marshal", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := est.MarshalBinary(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(blob)), "ckpt_bytes")
			})
			b.Run("restore", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := build(b).UnmarshalBinary(blob); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(blob)), "ckpt_bytes")
			})
		})
	}
}
