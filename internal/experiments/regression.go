package experiments

import (
	"fmt"
	"math"

	"privreg/internal/constraint"
	"privreg/internal/core"
	"privreg/internal/metrics"
	"privreg/internal/randx"
	"privreg/internal/sketch"
	"privreg/internal/stream"
	"privreg/internal/vec"
)

// sparseTruth returns a k-sparse ground-truth parameter inside the radius-r L1
// ball, deterministic for a given source.
func sparseTruth(d, k int, r float64, src *randx.Source) vec.Vector {
	theta := vec.NewVector(d)
	perm := src.Perm(d)
	for i := 0; i < k && i < d; i++ {
		theta[perm[i]] = r / float64(k) * src.Rademacher()
	}
	return theta
}

// denseTruth returns a dense ground truth on the sphere of radius r.
func denseTruth(d int, r float64, src *randx.Source) vec.Vector {
	theta := vec.Vector(src.UnitSphere(d))
	theta.Scale(r)
	return theta
}

// Table1Row3Mech1 reproduces the Mechanism-1 row of Table 1 (Theorem 4.2).
// Two quantities are reported per dimension:
//
//   - the measured excess empirical risk, which is always below the Theorem 4.2
//     bound and, on benign synthetic data at these stream lengths, is clipped at
//     the trivial predictor's excess (the min{·, T} branch of Table 1); and
//   - the measured error of the private gradient function at the true minimizer,
//     ‖g_T(θ̂) - ∇L(θ̂)‖ — the α of Definition 5, the quantity that drives the
//     √d dependence of the bound and whose scaling with d is fitted directly.
func Table1Row3Mech1(opts Options) (*Result, error) {
	opts.fill()
	dims := []int{4, 8, 16, 32, 64}
	horizon := 256
	if opts.Quick {
		dims = []int{4, 16}
		horizon = 64
	}
	table := metrics.NewTable("PRIVINCREG1 vs dimension (T="+fmt.Sprint(horizon)+")",
		"d", "excess(reg1)", "bound(Thm4.2)", "excess(trivial)", "grad err (meas.)", "OPT")
	type trialOut struct{ exc, triv, opt, gradErr float64 }
	outs, err := parallelMap(opts.workers(), len(dims)*opts.Trials, func(k int) (trialOut, error) {
		d, trial := dims[k/opts.Trials], k%opts.Trials
		src := randx.NewSource(opts.Seed + int64(1000*d+trial))
		cons := constraint.NewL2Ball(d, 1)
		truth := denseTruth(d, 0.7, src)
		gen, err := stream.NewLinearModel(truth, 0.05, 0, src.Split())
		if err != nil {
			return trialOut{}, err
		}
		est, err := core.NewGradientRegression(cons, opts.privacy(), horizon, src.Split(), core.RegressionOptions{MaxIterations: 200})
		if err != nil {
			return trialOut{}, err
		}
		oracle := core.NewNonPrivateIncremental(cons, 0)
		for t := 0; t < horizon; t++ {
			p := gen.Next()
			if err := est.Observe(p); err != nil {
				return trialOut{}, err
			}
			if err := oracle.Observe(p); err != nil {
				return trialOut{}, err
			}
		}
		theta, err := est.Estimate()
		if err != nil {
			return trialOut{}, err
		}
		exact, err := oracle.Estimate()
		if err != nil {
			return trialOut{}, err
		}
		opt := oracle.Risk(exact)
		pgExact := vec.NewVector(d)
		est.Gradient().GradientInto(pgExact, exact)
		return trialOut{
			exc: math.Max(0, oracle.Risk(theta)-opt),
			opt: opt,
			// Measured private-gradient error at the exact minimizer (Definition 5).
			gradErr: vec.Dist2(pgExact, oracle.Gradient(exact)),
			// Trivial mechanism excess on the same oracle.
			triv: math.Max(0, oracle.Risk(vec.NewVector(d))-opt),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var xs, excessSeries, gradSeries []float64
	for di, d := range dims {
		var sum trialOut
		for trial := 0; trial < opts.Trials; trial++ {
			o := outs[di*opts.Trials+trial]
			sum.exc += o.exc
			sum.triv += o.triv
			sum.opt += o.opt
			sum.gradErr += o.gradErr
		}
		n := float64(opts.Trials)
		exc := sum.exc / n
		gerr := sum.gradErr / n
		bound := core.ExcessRiskBoundReg1(horizon, d, 1, opts.privacy(), 0.05)
		table.AddRow(fmt.Sprint(d), fmt.Sprintf("%.4g", exc), fmt.Sprintf("%.4g", bound),
			fmt.Sprintf("%.4g", sum.triv/n), fmt.Sprintf("%.4g", gerr), fmt.Sprintf("%.4g", sum.opt/n))
		xs = append(xs, float64(d))
		excessSeries = append(excessSeries, exc)
		gradSeries = append(gradSeries, gerr)
	}
	res := &Result{
		ID:    "E3",
		Title: "Table 1 row 3, Mechanism 1 (Theorem 4.2): excess risk ≈ √d",
		Table: table,
		Slopes: map[string]float64{
			"excess vs d":                        metrics.LogLogSlope(xs, excessSeries),
			"gradient error vs d (paper: ≈ 0.5)": metrics.LogLogSlope(xs, gradSeries),
		},
	}
	res.Notes = append(res.Notes,
		"the private-gradient error (Definition 5) is the noise floor driving the √d bound; its fitted exponent is the direct check of the Theorem 4.2 shape",
		"on benign data at this stream length the measured excess is clipped by the trivial predictor (the min{·, T} branch of Table 1)")
	return res, nil
}

// Table1Row3Mech2 reproduces the Mechanism-2 row of Table 1 (Theorem 5.7):
// with sparse covariates and an L1-ball constraint the excess risk of
// PRIVINCREG2 should be nearly flat in the ambient dimension while PRIVINCREG1
// grows like √d, so the projected mechanism eventually wins as d grows.
func Table1Row3Mech2(opts Options) (*Result, error) {
	opts.fill()
	dims := []int{16, 64, 256}
	horizon := 128
	sparsity := 3
	if opts.Quick {
		dims = []int{16, 64}
		horizon = 48
	}
	table := metrics.NewTable("Excess risk with sparse covariates and Lasso constraint (T="+fmt.Sprint(horizon)+")",
		"d", "excess(reg2)", "excess(reg1)", "bound(Thm5.7)", "m(proj)", "W=w(X)+w(C)")
	type trialOut struct {
		exc1, exc2, width float64
		mUsed             int
	}
	outs, err := parallelMap(opts.workers(), len(dims)*opts.Trials, func(k int) (trialOut, error) {
		d, trial := dims[k/opts.Trials], k%opts.Trials
		src := randx.NewSource(opts.Seed + int64(977*d+trial))
		cons := constraint.NewL1Ball(d, 1)
		domain := constraint.NewSparseSet(d, sparsity, 1)
		truth := sparseTruth(d, sparsity, 0.8, src)
		var out trialOut
		// Mechanism 2 (projected).
		gen2, err := stream.NewLinearModel(truth, 0.05, sparsity, src.Split())
		if err != nil {
			return trialOut{}, err
		}
		reg2, err := core.NewProjectedRegression(domain, cons, opts.privacy(), horizon, src.Split(), core.ProjectedOptions{
			RegressionOptions: core.RegressionOptions{MaxIterations: 150},
		})
		if err != nil {
			return trialOut{}, err
		}
		out.mUsed = reg2.ProjectionDim()
		out.width = reg2.Width()
		oracle2 := core.NewNonPrivateIncremental(cons, 0)
		exc2, _, err := excessAtHorizon(reg2, oracle2, gen2, horizon)
		if err != nil {
			return trialOut{}, err
		}
		out.exc2 = exc2
		// Mechanism 1 on an identically distributed stream.
		gen1, err := stream.NewLinearModel(truth, 0.05, sparsity, src.Split())
		if err != nil {
			return trialOut{}, err
		}
		reg1, err := core.NewGradientRegression(cons, opts.privacy(), horizon, src.Split(), core.RegressionOptions{MaxIterations: 150})
		if err != nil {
			return trialOut{}, err
		}
		oracle1 := core.NewNonPrivateIncremental(cons, 0)
		exc1, _, err := excessAtHorizon(reg1, oracle1, gen1, horizon)
		if err != nil {
			return trialOut{}, err
		}
		out.exc1 = exc1
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var xs, y1, y2 []float64
	var lastNote string
	for di, d := range dims {
		var exc1Sum, exc2Sum, width float64
		var mUsed int
		for trial := 0; trial < opts.Trials; trial++ {
			o := outs[di*opts.Trials+trial]
			exc1Sum += o.exc1
			exc2Sum += o.exc2
			width = o.width
			mUsed = o.mUsed
		}
		n := float64(opts.Trials)
		exc1, exc2 := exc1Sum/n, exc2Sum/n
		bound := core.ExcessRiskBoundReg2(horizon, width, 1, opts.privacy(), 0.05, 0)
		table.AddRow(fmt.Sprint(d), fmt.Sprintf("%.4g", exc2), fmt.Sprintf("%.4g", exc1),
			fmt.Sprintf("%.4g", bound), fmt.Sprint(mUsed), fmt.Sprintf("%.3g", width))
		xs = append(xs, float64(d))
		y1 = append(y1, exc1)
		y2 = append(y2, exc2)
		if exc2 < exc1 {
			lastNote = fmt.Sprintf("crossover observed by d=%d: projected mechanism beats gradient mechanism", d)
		}
	}
	slopes := map[string]float64{
		"reg1 excess vs d (paper: 0.5)":      metrics.LogLogSlope(xs, y1),
		"reg2 excess vs d (paper: ~polylog)": metrics.LogLogSlope(xs, y2),
	}
	res := &Result{
		ID:     "E4",
		Title:  "Table 1 row 3, Mechanism 2 (Theorem 5.7): width-driven, nearly dimension-free excess risk",
		Table:  table,
		Slopes: slopes,
	}
	if lastNote != "" {
		res.Notes = append(res.Notes, lastNote)
	}
	return res, nil
}

// RobustMixedDomain reproduces the §5.2 extension: a fraction of covariates
// fall outside the small-Gaussian-width domain G; the robust mechanism
// neutralizes them and retains a small excess risk on the in-domain points,
// while the plain projected mechanism degrades as the outlier fraction grows.
func RobustMixedDomain(opts Options) (*Result, error) {
	opts.fill()
	fractions := []float64{0, 0.2, 0.5}
	d, sparsity, horizon := 64, 3, 96
	if opts.Quick {
		fractions = []float64{0, 0.5}
		d, horizon = 32, 48
	}
	table := metrics.NewTable("Robust §5.2 extension: excess risk on in-domain points vs outlier fraction",
		"outlier-frac", "excess(robust)", "excess(plain-reg2)", "dropped")
	cons := constraint.NewL1Ball(d, 1)
	domain := constraint.NewSparseSet(d, sparsity, 1)
	oracleTol := 2 * sparsity // membership tolerance on the sparsity count
	type trialOut struct {
		robust, plain float64
		dropped       int
	}
	outs, err := parallelMap(opts.workers(), len(fractions)*opts.Trials, func(k int) (trialOut, error) {
		frac, trial := fractions[k/opts.Trials], k%opts.Trials
		src := randx.NewSource(opts.Seed + int64(13*trial) + int64(frac*1000))
		truth := sparseTruth(d, sparsity, 0.8, src)
		inGen, err := stream.NewLinearModel(truth, 0.05, sparsity, src.Split())
		if err != nil {
			return trialOut{}, err
		}
		outGen, err := stream.NewLinearModel(truth, 0.05, 0, src.Split()) // dense covariates
		if err != nil {
			return trialOut{}, err
		}
		mix, err := stream.NewMixture(inGen, outGen, frac, src.Split())
		if err != nil {
			return trialOut{}, err
		}
		oracle := func(x vec.Vector) bool { return vec.NumNonzero(x) <= oracleTol }
		robust, err := core.NewRobustProjectedRegression(domain, cons, oracle, opts.privacy(), horizon, src.Split(), core.ProjectedOptions{
			RegressionOptions: core.RegressionOptions{MaxIterations: 120},
		})
		if err != nil {
			return trialOut{}, err
		}
		plain, err := core.NewProjectedRegression(domain, cons, opts.privacy(), horizon, src.Split(), core.ProjectedOptions{
			RegressionOptions: core.RegressionOptions{MaxIterations: 120},
		})
		if err != nil {
			return trialOut{}, err
		}
		// Feed the same realized stream to both mechanisms and track the
		// in-domain-only exact oracle.
		inOracle := core.NewNonPrivateIncremental(cons, 0)
		for t := 0; t < horizon; t++ {
			p := mix.Next()
			isIn := oracle(p.X)
			if err := robust.Observe(p); err != nil {
				return trialOut{}, err
			}
			if err := plain.Observe(p); err != nil {
				return trialOut{}, err
			}
			if isIn {
				if err := inOracle.Observe(p); err != nil {
					return trialOut{}, err
				}
			}
		}
		exact, err := inOracle.Estimate()
		if err != nil {
			return trialOut{}, err
		}
		base := inOracle.Risk(exact)
		thR, err := robust.Estimate()
		if err != nil {
			return trialOut{}, err
		}
		thP, err := plain.Estimate()
		if err != nil {
			return trialOut{}, err
		}
		return trialOut{
			robust:  math.Max(0, inOracle.Risk(thR)-base),
			plain:   math.Max(0, inOracle.Risk(thP)-base),
			dropped: robust.Dropped(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for fi, frac := range fractions {
		var robustSum, plainSum float64
		var dropped int
		for trial := 0; trial < opts.Trials; trial++ {
			o := outs[fi*opts.Trials+trial]
			robustSum += o.robust
			plainSum += o.plain
			dropped += o.dropped
		}
		n := float64(opts.Trials)
		table.AddRow(fmt.Sprintf("%.2f", frac), fmt.Sprintf("%.4g", robustSum/n),
			fmt.Sprintf("%.4g", plainSum/n), fmt.Sprint(dropped/opts.Trials))
	}
	return &Result{
		ID:    "E9",
		Title: "§5.2 extension: robust projected regression on mixed-domain streams",
		Table: table,
		Notes: []string{"the robust mechanism's in-domain excess risk should stay roughly flat as the outlier fraction grows"},
	}, nil
}

// AblationWarmStart compares restarting the per-timestep optimizer from scratch
// against warm-starting from the previous estimate (ablation A2). It runs
// over an L1 ball: an L2 ball is read exactly, where the start point plays no
// part, so only the projected-gradient path has a warm start to ablate.
func AblationWarmStart(opts Options) (*Result, error) {
	opts.fill()
	d, horizon := 16, 128
	if opts.Quick {
		d, horizon = 8, 48
	}
	table := metrics.NewTable("Ablation: warm-start vs cold-start optimizer in PRIVINCREG1 (L1 ball)",
		"variant", "excess", "OPT")
	cons := constraint.NewL1Ball(d, 1)
	variants := []bool{false, true}
	type trialOut struct{ exc, opt float64 }
	outs, err := parallelMap(opts.workers(), len(variants)*opts.Trials, func(k int) (trialOut, error) {
		warm, trial := variants[k/opts.Trials], k%opts.Trials
		src := randx.NewSource(opts.Seed + int64(trial))
		truth := denseTruth(d, 0.7, src)
		gen, err := stream.NewLinearModel(truth, 0.05, 0, src.Split())
		if err != nil {
			return trialOut{}, err
		}
		est, err := core.NewGradientRegression(cons, opts.privacy(), horizon, src.Split(), core.RegressionOptions{
			MaxIterations: 150, WarmStart: warm,
		})
		if err != nil {
			return trialOut{}, err
		}
		oracle := core.NewNonPrivateIncremental(cons, 0)
		exc, opt, err := regressionCurve(est, oracle, gen, horizon, checkpointsFor(horizon))
		if err != nil {
			return trialOut{}, err
		}
		return trialOut{exc: exc, opt: opt}, nil
	})
	if err != nil {
		return nil, err
	}
	for vi, warm := range variants {
		var excSum, optSum float64
		for trial := 0; trial < opts.Trials; trial++ {
			o := outs[vi*opts.Trials+trial]
			excSum += o.exc
			optSum += o.opt
		}
		name := "cold-start"
		if warm {
			name = "warm-start"
		}
		n := float64(opts.Trials)
		table.AddRow(name, fmt.Sprintf("%.4g", excSum/n), fmt.Sprintf("%.4g", optSum/n))
	}
	return &Result{ID: "A2", Title: "Ablation: optimizer warm-start across timesteps", Table: table}, nil
}

// AblationProjScaling toggles the ‖x‖/‖Φx‖ covariate rescaling of Algorithm 3
// (footnote 15) on and off (ablation A3).
func AblationProjScaling(opts Options) (*Result, error) {
	opts.fill()
	d, sparsity, horizon := 64, 3, 96
	if opts.Quick {
		d, horizon = 32, 48
	}
	table := metrics.NewTable("Ablation: projected-covariate rescaling (footnote 15) in PRIVINCREG2",
		"variant", "excess", "OPT")
	cons := constraint.NewL1Ball(d, 1)
	domain := constraint.NewSparseSet(d, sparsity, 1)
	variants := []bool{false, true}
	type trialOut struct{ exc, opt float64 }
	outs, err := parallelMap(opts.workers(), len(variants)*opts.Trials, func(k int) (trialOut, error) {
		disable, trial := variants[k/opts.Trials], k%opts.Trials
		src := randx.NewSource(opts.Seed + int64(trial) + 7)
		truth := sparseTruth(d, sparsity, 0.8, src)
		gen, err := stream.NewLinearModel(truth, 0.05, sparsity, src.Split())
		if err != nil {
			return trialOut{}, err
		}
		est, err := core.NewProjectedRegression(domain, cons, opts.privacy(), horizon, src.Split(), core.ProjectedOptions{
			RegressionOptions:       core.RegressionOptions{MaxIterations: 120},
			DisableCovariateScaling: disable,
		})
		if err != nil {
			return trialOut{}, err
		}
		oracle := core.NewNonPrivateIncremental(cons, 0)
		exc, opt, err := excessAtHorizon(est, oracle, gen, horizon)
		if err != nil {
			return trialOut{}, err
		}
		return trialOut{exc: exc, opt: opt}, nil
	})
	if err != nil {
		return nil, err
	}
	for vi, disable := range variants {
		var excSum, optSum float64
		for trial := 0; trial < opts.Trials; trial++ {
			o := outs[vi*opts.Trials+trial]
			excSum += o.exc
			optSum += o.opt
		}
		name := "scaling on (paper)"
		if disable {
			name = "scaling off"
		}
		n := float64(opts.Trials)
		table.AddRow(name, fmt.Sprintf("%.4g", excSum/n), fmt.Sprintf("%.4g", optSum/n))
	}
	return &Result{ID: "A3", Title: "Ablation: ‖x‖/‖Φx‖ rescaling in the projected objective", Table: table}, nil
}

// AblationSketchBackend runs PRIVINCREG2 with the dense Gaussian projector and
// with the SRHT fast path on identically distributed streams: the two backends
// share the same embedding guarantee, so their excess risk should be
// statistically indistinguishable while the SRHT apply is asymptotically
// cheaper (see docs/PERFORMANCE.md for the microbenchmark).
func AblationSketchBackend(opts Options) (*Result, error) {
	opts.fill()
	d, sparsity, horizon := 64, 3, 96
	if opts.Quick {
		d, horizon = 32, 48
	}
	table := metrics.NewTable("Ablation: dense Gaussian projector vs SRHT fast path in PRIVINCREG2",
		"backend", "excess", "OPT", "m(proj)")
	cons := constraint.NewL1Ball(d, 1)
	domain := constraint.NewSparseSet(d, sparsity, 1)
	backends := []sketch.Backend{sketch.BackendDense, sketch.BackendSRHT}
	type trialOut struct {
		exc, opt float64
		mUsed    int
	}
	outs, err := parallelMap(opts.workers(), len(backends)*opts.Trials, func(k int) (trialOut, error) {
		backend, trial := backends[k/opts.Trials], k%opts.Trials
		// Same stream seed for both backends so the comparison shares data.
		src := randx.NewSource(opts.Seed + int64(trial)*53 + 11)
		truth := sparseTruth(d, sparsity, 0.8, src)
		gen, err := stream.NewLinearModel(truth, 0.05, sparsity, src.Split())
		if err != nil {
			return trialOut{}, err
		}
		est, err := core.NewProjectedRegression(domain, cons, opts.privacy(), horizon, src.Split(), core.ProjectedOptions{
			RegressionOptions: core.RegressionOptions{MaxIterations: 120},
			Sketch:            backend,
		})
		if err != nil {
			return trialOut{}, err
		}
		oracle := core.NewNonPrivateIncremental(cons, 0)
		exc, opt, err := excessAtHorizon(est, oracle, gen, horizon)
		if err != nil {
			return trialOut{}, err
		}
		return trialOut{exc: exc, opt: opt, mUsed: est.ProjectionDim()}, nil
	})
	if err != nil {
		return nil, err
	}
	for bi, backend := range backends {
		var excSum, optSum float64
		var mUsed int
		for trial := 0; trial < opts.Trials; trial++ {
			o := outs[bi*opts.Trials+trial]
			excSum += o.exc
			optSum += o.opt
			mUsed = o.mUsed
		}
		n := float64(opts.Trials)
		table.AddRow(backend.String(), fmt.Sprintf("%.4g", excSum/n), fmt.Sprintf("%.4g", optSum/n), fmt.Sprint(mUsed))
	}
	return &Result{
		ID:    "A5",
		Title: "Ablation: sketch backend (dense Gaussian vs SRHT) in PRIVINCREG2",
		Table: table,
		Notes: []string{"both backends satisfy the same norm-preservation guarantee; excess risk should match to within trial noise"},
	}, nil
}
