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

// quadObjective is θᵀAθ − 2bᵀθ.
func quadObjective(a *vec.Matrix, b, theta vec.Vector) float64 {
	return vec.Dot(theta, a.MulVec(theta)) - 2*vec.Dot(b, theta)
}

// addRidge adds r to the diagonal of the square matrix a.
func addRidge(a *vec.Matrix, r float64) {
	for i := 0; i < a.Rows(); i++ {
		a.Incr(i, i, r)
	}
}

// TestExactReadBeatsDescent checks that the exact L2-ball read solves its
// objective θᵀ(Q̃ + rI)θ − 2q̃ᵀθ, r the ridge lifting Q̃'s spectrum to the
// noise bound: for gradient (solving over C) and projected (solving over the
// relaxed ball in the m-space), across seeds and stream lengths, the read's
// objective is no worse than that of Descend at 400 iterations with the
// smoothness step on the same objective, the solution lies in the ball, and
// Q̃ + rI ⪰ ρI. At n ≤ 1000 the released Q̃ is noise-dominated and indefinite
// at this budget, so the ridge is positive; at n = 100,000 it is positive
// definite.
func TestExactReadBeatsDescent(t *testing.T) {
	const d, horizon, iters = 8, 1 << 17, 400
	cons := constraint.NewL2Ball(d, 1)
	indefinite := 0
	for _, name := range []string{"gradient", "projected"} {
		for seed := int64(1); seed <= 8; seed++ {
			for _, n := range []int{1, 10, 1000, 100000} {
				var mech Estimator
				var core *privateMoments
				switch name {
				case "gradient":
					g, err := NewGradientRegression(cons, privacy(), horizon, randx.NewSource(seed), RegressionOptions{})
					if err != nil {
						t.Fatal(err)
					}
					mech, core = g, &g.privateMoments
				case "projected":
					r, err := NewProjectedRegression(cons, cons, privacy(), horizon, randx.NewSource(seed), ProjectedOptions{ProjectionDim: 5})
					if err != nil {
						t.Fatal(err)
					}
					mech, core = r, &r.privateMoments
				}
				rows := randx.NewSource(100 + seed)
				truth := vec.Vector(rows.NormalVector(d, 0.3))
				for i := 0; i < n; i++ {
					x := vec.Vector(rows.NormalVector(d, 0.35))
					if err := observe(mech, loss.Point{X: x, Y: vec.Dot(truth, x) + rows.Normal(0, 0.1)}); err != nil {
						t.Fatal(err)
					}
				}
				exact, err := core.estimate(nil)
				if err != nil {
					t.Fatal(err)
				}
				pg := core.Gradient()
				var ws vec.CholeskyWorkspace
				if ws.Factor(pg.Q, 0) != nil {
					indefinite++
				}
				var tr erm.TrustRegion
				r := tr.Ridge(pg.Q, core.floor)
				addRidge(pg.Q, r)
				if ws.Factor(pg.Q, -core.floor) != nil {
					t.Fatalf("%s seed %d n=%d: Q̃ + rI is not above ρI (r = %g, ρ = %g)", name, seed, n, r, core.floor)
				}
				diam := core.domain.Diameter()
				lip := 2 * float64(n) * (1 + diam)
				step := smoothStepSize(pg, lip, core.gradErr, diam, iters)
				descent := erm.NewSolver(core.domain).Descend(nil, iters, step, 0,
					func(dst, theta vec.Vector, _ int) { pg.GradientInto(dst, theta) })
				if norm := vec.Norm2(exact); norm > diam*(1+1e-9) {
					t.Fatalf("%s seed %d n=%d: ‖θ‖ = %.17g outside the radius %g", name, seed, n, norm, diam)
				}
				jExact, jDescent := quadObjective(pg.Q, pg.Qv, exact), quadObjective(pg.Q, pg.Qv, descent)
				if jExact > jDescent+1e-9*max(1, -jDescent, jDescent) {
					t.Errorf("%s seed %d n=%d: exact objective %.17g above 400-step PGD's %.17g", name, seed, n, jExact, jDescent)
				}
			}
		}
	}
	if indefinite == 0 || indefinite == 64 {
		t.Fatalf("%d of 64 reads had an indefinite Q̃; the cases no longer cover both kinds", indefinite)
	}
}

// TestExactReadExcessRisk checks the released estimate against the truth it
// estimates: over 8 seeds, the gradient mechanism's mean excess empirical
// risk θᵀQθ − 2qᵀθ − min over C, measured with the exact moments Q and q of
// the stream, against that of the descent read the paper specifies (Descend
// on the unridged Q̃ with the iteration count and step size the descent path
// picks). Up to n = 20,000 Q̃ is noise-dominated, the ridge is positive in
// every read and the exact read must be no worse. At n = 100,000 Q̃ clears
// the noise bound, the ridge is zero in every read and the exact read is the
// minimizer of the privatized objective, which the shrinkage of the
// averaged descent iterate beats by a few percent; there it must stay
// within 10%.
func TestExactReadExcessRisk(t *testing.T) {
	const d, horizon, seeds = 4, 1 << 19, 8
	reads := []int{10, 1000, 20000, 100000}
	var exactSum, descentSum [4]float64
	var ridged [4]int
	cons := constraint.NewL2Ball(d, 1)
	for seed := int64(1); seed <= seeds; seed++ {
		g, err := NewGradientRegression(cons, privacy(), horizon, randx.NewSource(seed), RegressionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rows := randx.NewSource(100 + seed)
		truth := vec.Vector(rows.NormalVector(d, 1))
		truth.Scale(0.8 / vec.Norm2(truth))
		q, qv := vec.NewMatrix(d, d), vec.NewVector(d)
		next := 0
		for i := 1; next < len(reads); i++ {
			x := vec.Vector(rows.NormalVector(d, 0.8/math.Sqrt(d)))
			if nx := vec.Norm2(x); nx > 1 {
				x.Scale(1 / nx)
			}
			y := math.Max(-1, math.Min(1, vec.Dot(truth, x)+rows.Normal(0, 0.1)))
			if err := observe(g, loss.Point{X: x, Y: y}); err != nil {
				t.Fatal(err)
			}
			q.AddOuterInPlace(1, x)
			vec.Axpy(qv, y, x)
			if i != reads[next] {
				continue
			}
			var tr erm.TrustRegion
			star, _ := tr.Solve(q, qv, 1)
			opt := quadObjective(q, qv, star)
			exact, err := g.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			pg := g.Gradient()
			if tr.Ridge(pg.Q, g.floor) > 0 {
				ridged[next]++
			}
			lip := 2 * float64(i) * (1 + cons.Diameter())
			iters := erm.IterationsForTargetError(lip*cons.Diameter(), g.gradErr, 50, 400)
			step := smoothStepSize(pg, lip, g.gradErr, cons.Diameter(), iters)
			descent := erm.NewSolver(cons).Descend(nil, iters, step, 0,
				func(dst, theta vec.Vector, _ int) { pg.GradientInto(dst, theta) })
			exactSum[next] += quadObjective(q, qv, exact) - opt
			descentSum[next] += quadObjective(q, qv, descent) - opt
			next++
		}
	}
	for k, n := range reads {
		slack, wantRidged := 1.0, seeds
		if k == len(reads)-1 {
			slack, wantRidged = 1.1, 0
		}
		if ridged[k] != wantRidged {
			t.Fatalf("n=%d: %d of %d reads had a positive ridge, want %d", n, ridged[k], seeds, wantRidged)
		}
		if exactSum[k] > slack*descentSum[k] {
			t.Errorf("n=%d: mean excess risk %.6g of the exact read above %g× the descent read's %.6g", n, exactSum[k]/seeds, slack, descentSum[k]/seeds)
		}
	}
}
