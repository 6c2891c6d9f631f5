package experiments

import (
	"fmt"
	"math"

	"privreg/internal/constraint"
	"privreg/internal/core"
	"privreg/internal/dp"
	"privreg/internal/erm"
	"privreg/internal/geom"
	"privreg/internal/loss"
	"privreg/internal/metrics"
	"privreg/internal/randx"
	"privreg/internal/sketch"
	"privreg/internal/stream"
	"privreg/internal/tree"
	"privreg/internal/vec"
)

// TreeMechanismError reproduces Proposition C.1: the maximum (over timesteps)
// Euclidean error of the Tree Mechanism's continual sums grows roughly like
// log^{3/2} T · √d, i.e. only polylogarithmically with the stream length.
func TreeMechanismError(opts Options) (*Result, error) {
	opts.fill()
	horizons := []int{64, 256, 1024, 4096}
	dims := []int{4, 16}
	if opts.Quick {
		horizons = []int{64, 256}
		dims = []int{4}
	}
	type cell struct{ d, horizon int }
	var cells []cell
	for _, d := range dims {
		for _, horizon := range horizons {
			cells = append(cells, cell{d, horizon})
		}
	}
	type trialOut struct{ worst, bound float64 }
	outs, err := parallelMap(opts.workers(), len(cells)*opts.Trials, func(k int) (trialOut, error) {
		c, trial := cells[k/opts.Trials], k%opts.Trials
		src := randx.NewSource(opts.Seed + int64(7*c.horizon+13*c.d+trial))
		mech, err := tree.New(tree.Config{Dim: c.d, MaxLen: c.horizon, Sensitivity: 2, Privacy: opts.privacy()}, src.Split())
		if err != nil {
			return trialOut{}, err
		}
		exact := make(vec.Vector, c.d)
		got := make(vec.Vector, c.d)
		var worst float64
		for t := 0; t < c.horizon; t++ {
			v := vec.Vector(src.UnitSphere(c.d))
			exact.AddInPlace(v)
			// The release is the running sum plus the tree's noise overlay.
			got.CopyFrom(exact)
			mech.AddNoiseTo(got, t+1)
			if e := vec.Dist2(got, exact); e > worst {
				worst = e
			}
		}
		return trialOut{worst: worst, bound: mech.ErrorBound(0.05)}, nil
	})
	if err != nil {
		return nil, err
	}
	table := metrics.NewTable("Tree Mechanism maximum prefix-sum error (Proposition C.1)",
		"T", "d", "max error", "bound")
	slopes := map[string]float64{}
	k := 0
	for _, d := range dims {
		var xs, ys []float64
		for _, horizon := range horizons {
			var maxErrSum, bound float64
			for trial := 0; trial < opts.Trials; trial++ {
				maxErrSum += outs[k].worst
				bound = outs[k].bound
				k++
			}
			avg := maxErrSum / float64(opts.Trials)
			table.AddRow(fmt.Sprint(horizon), fmt.Sprint(d), fmt.Sprintf("%.4g", avg), fmt.Sprintf("%.4g", bound))
			xs = append(xs, math.Log(float64(horizon)))
			ys = append(ys, avg)
		}
		// Fit error against log T: the paper predicts growth like (log T)^{3/2},
		// i.e. a log–log slope of ≈ 1.5 when regressing log(error) on log(log T).
		slopes[fmt.Sprintf("error vs log T, d=%d (paper: ≤1.5)", d)] = metrics.LogLogSlope(xs, ys)
	}
	return &Result{
		ID:     "E6",
		Title:  "Proposition C.1: Tree Mechanism error grows only polylogarithmically in T",
		Table:  table,
		Slopes: slopes,
	}, nil
}

// NoisyPGDConvergence reproduces Proposition B.1 / Corollary B.2: the
// suboptimality of noisy projected gradient descent decays like 1/√r down to
// the α‖C‖ noise floor, and r = (1 + L/α)² iterations reach the 2α‖C‖ target.
func NoisyPGDConvergence(opts Options) (*Result, error) {
	opts.fill()
	d := 20
	iterSweep := []int{5, 20, 80, 320}
	alphas := []float64{0.01, 0.1}
	if opts.Quick {
		d = 10
		iterSweep = []int{5, 40}
		alphas = []float64{0.1}
	}
	cons := constraint.NewL2Ball(d, 1)
	table := metrics.NewTable("Noisy projected gradient descent (Proposition B.1)",
		"alpha", "r", "suboptimality", "theory bound (α+L)‖C‖/√r + α‖C‖")
	src := randx.NewSource(opts.Seed)
	// A fixed strongly curved quadratic f(θ) = Σ_i w_i (θ_i - c_i)² with the
	// optimum inside C, whose exact minimum is known in closed form. The problem
	// instance is drawn once, sequentially; only the noisy trials parallelize.
	weights := make(vec.Vector, d)
	center := make(vec.Vector, d)
	for i := 0; i < d; i++ {
		weights[i] = 1 + src.Float64()
		center[i] = 0.5 * src.Normal(0, 0.3)
	}
	cons.ProjectInto(center, center, nil)
	value := func(th vec.Vector) float64 {
		var s float64
		for i := range th {
			dlt := th[i] - center[i]
			s += weights[i] * dlt * dlt
		}
		return s
	}
	exactGrad := func(dst, th vec.Vector) {
		for i := range th {
			dst[i] = 2 * weights[i] * (th[i] - center[i])
		}
	}
	lip := 0.0
	for i := range weights {
		if l := 2 * weights[i] * (1 + math.Abs(center[i])); l > lip {
			lip = l
		}
	}
	type cell struct {
		alpha float64
		r     int
	}
	var cells []cell
	for _, alpha := range alphas {
		for _, r := range iterSweep {
			cells = append(cells, cell{alpha, r})
		}
	}
	subs, err := parallelMap(opts.workers(), len(cells)*opts.Trials, func(k int) (float64, error) {
		c, trial := cells[k/opts.Trials], k%opts.Trials
		tsrc := randx.NewSource(opts.Seed + int64(trial) + int64(c.r)*31)
		noisy := func(dst, th vec.Vector, _ int) {
			exactGrad(dst, th)
			noise := vec.Vector(tsrc.UnitSphere(d))
			vec.Axpy(dst, c.alpha*tsrc.Float64(), noise)
		}
		step := erm.DefaultStepSize(cons.Diameter(), c.r, c.alpha, lip)
		return value(erm.NewSolver(cons).Descend(nil, c.r, step, 0, noisy)) - value(center), nil
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range cells {
		var subSum float64
		for trial := 0; trial < opts.Trials; trial++ {
			subSum += subs[ci*opts.Trials+trial]
		}
		sub := subSum / float64(opts.Trials)
		bound := (c.alpha+lip)*cons.Diameter()/math.Sqrt(float64(c.r)) + c.alpha*cons.Diameter()
		table.AddRow(fmt.Sprintf("%.3g", c.alpha), fmt.Sprint(c.r), fmt.Sprintf("%.4g", sub), fmt.Sprintf("%.4g", bound))
	}
	return &Result{
		ID:    "E7",
		Title: "Proposition B.1: noisy projected gradient converges at 1/√r to an α‖C‖ floor",
		Table: table,
	}, nil
}

// GordonEmbeddingAndLifting reproduces Theorem 5.1 and Theorem 5.3: projecting
// a low-Gaussian-width set with a Gaussian matrix of m ≳ w(S)² rows keeps norms
// nearly undistorted even for adaptively chosen points, and lifting from the
// projection recovers the original point up to ≈ w(C)/√m error.
func GordonEmbeddingAndLifting(opts Options) (*Result, error) {
	opts.fill()
	d, sparsity := 256, 4
	ms := []int{8, 32, 128}
	points := 64
	if opts.Quick {
		d = 64
		ms = []int{8, 32}
		points = 16
	}
	cons := constraint.NewL1Ball(d, 1)
	table := metrics.NewTable("Gordon embedding distortion and lifting error vs projection dimension m",
		"m", "norm distortion (iid)", "norm distortion (adaptive)", "lift error", "lift bound (Thm5.3)")
	type trialOut struct{ distIID, distAdaptive, liftErr float64 }
	outs, err := parallelMap(opts.workers(), len(ms)*opts.Trials, func(k int) (trialOut, error) {
		m, trial := ms[k/opts.Trials], k%opts.Trials
		src := randx.NewSource(opts.Seed + int64(m*101+trial))
		proj, err := sketch.NewProjector(m, d, src.Split())
		if err != nil {
			return trialOut{}, err
		}
		var out trialOut
		// i.i.d. sparse points.
		var iid []vec.Vector
		for i := 0; i < points; i++ {
			iid = append(iid, vec.Vector(src.SparseVector(d, sparsity)))
		}
		out.distIID = geom.NormDistortion(proj.Apply, iid)
		// Adaptively chosen sparse points (adversary sees Φ through a probe).
		truth := sparseTruth(d, sparsity, 0.8, src)
		adv, err := stream.NewAdaptive(truth, sparsity, proj.Apply, src.Split())
		if err != nil {
			return trialOut{}, err
		}
		var adaptive []vec.Vector
		for i := 0; i < points; i++ {
			adaptive = append(adaptive, adv.Next().X)
		}
		out.distAdaptive = geom.NormDistortion(proj.Apply, adaptive)
		// Lifting: project a known θ ∈ C and recover it.
		theta := sparseTruth(d, sparsity, 0.9, src)
		cons.ProjectInto(theta, theta, nil)
		target := proj.Apply(theta)
		lifted, err := proj.Lift(cons, target, sketch.LiftOptions{})
		if err != nil {
			return trialOut{}, err
		}
		out.liftErr = vec.Dist2(lifted, theta)
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for mi, m := range ms {
		var sum trialOut
		for trial := 0; trial < opts.Trials; trial++ {
			o := outs[mi*opts.Trials+trial]
			sum.distIID += o.distIID
			sum.distAdaptive += o.distAdaptive
			sum.liftErr += o.liftErr
		}
		n := float64(opts.Trials)
		bound := geom.LiftErrorBound(cons, m, 0.05)
		table.AddRow(fmt.Sprint(m), fmt.Sprintf("%.4g", sum.distIID/n), fmt.Sprintf("%.4g", sum.distAdaptive/n),
			fmt.Sprintf("%.4g", sum.liftErr/n), fmt.Sprintf("%.4g", bound))
	}
	return &Result{
		ID:    "E8",
		Title: "Theorems 5.1 & 5.3: Gordon embedding (adaptive-safe) and Minkowski lifting error decay with m",
		Table: table,
		Notes: []string{"distortion and lifting error should both shrink as m grows past w(S)²; adaptive points should not be much worse than i.i.d. ones"},
	}, nil
}

// PrivacySanity is a statistical sanity check of Definition 4: running
// PRIVINCREG1 on two neighboring streams (differing in one point) many times,
// the difference between the mean released sums must be small relative to the
// noise scale — a necessary condition for (ε, δ)-indistinguishability. It is
// not a proof of privacy (the proof is the sensitivity/composition argument in
// the code and its tests); it guards against gross calibration bugs such as
// forgetting to add noise.
func PrivacySanity(opts Options) (*Result, error) {
	opts.fill()
	d, horizon := 4, 16
	trials := 40
	if opts.Quick {
		trials = 12
	}
	table := metrics.NewTable("Privacy sanity: neighboring-stream output shift relative to noise scale",
		"mechanism", "mean output shift", "noise stddev", "shift/noise")
	cons := constraint.NewL2Ball(d, 1)
	base := randx.NewSource(opts.Seed)
	truth := denseTruth(d, 0.7, base)
	gen, err := stream.NewLinearModel(truth, 0.05, 0, base.Split())
	if err != nil {
		return nil, err
	}
	points := stream.Collect(gen, horizon)
	neighbor := make([]loss.Point, horizon)
	copy(neighbor, points)
	// Replace the middle point with an adversarial alternative.
	alt := vec.NewVector(d)
	alt[0] = 1
	neighbor[horizon/2] = loss.Point{X: alt, Y: -1}

	run := func(data []loss.Point, seed int64) (vec.Vector, float64, error) {
		src := randx.NewSource(seed)
		est, err := core.NewGradientRegression(cons, opts.privacy(), horizon, src, core.RegressionOptions{MaxIterations: 60})
		if err != nil {
			return nil, 0, err
		}
		for _, p := range data {
			if err := observe(est, p); err != nil {
				return nil, 0, err
			}
		}
		pg := est.Gradient()
		return pg.Qv.Clone(), est.GradientErrorScale(), nil
	}
	type trialOut struct {
		a, b vec.Vector
		ns   float64
	}
	outs, err := parallelMap(opts.workers(), trials, func(trial int) (trialOut, error) {
		a, ns, err := run(points, opts.Seed+int64(trial)*977)
		if err != nil {
			return trialOut{}, err
		}
		b, _, err := run(neighbor, opts.Seed+int64(trial)*977+500000)
		if err != nil {
			return trialOut{}, err
		}
		return trialOut{a: a, b: b, ns: ns}, nil
	})
	if err != nil {
		return nil, err
	}
	meanA := vec.NewVector(d)
	meanB := vec.NewVector(d)
	var noiseScale float64
	for _, o := range outs {
		meanA.AddInPlace(o.a)
		meanB.AddInPlace(o.b)
		noiseScale = o.ns
	}
	meanA.Scale(1 / float64(trials))
	meanB.Scale(1 / float64(trials))
	shift := vec.Dist2(meanA, meanB)
	ratio := 0.0
	if noiseScale > 0 {
		ratio = shift / noiseScale
	}
	table.AddRow("priv-inc-reg1 (first-moment sum)", fmt.Sprintf("%.4g", shift), fmt.Sprintf("%.4g", noiseScale), fmt.Sprintf("%.3g", ratio))
	return &Result{
		ID:    "E10",
		Title: "Definition 4 sanity check: neighboring streams produce statistically close private state",
		Table: table,
		Notes: []string{"the shift between neighboring-stream outputs must stay well below the calibrated noise scale"},
	}, nil
}

// AblationTreeVsNaiveSum compares the Tree Mechanism against perturbing the
// running sum independently at every step under the same total privacy budget
// (ablation A1).
func AblationTreeVsNaiveSum(opts Options) (*Result, error) {
	opts.fill()
	horizons := []int{64, 256, 1024}
	d := 8
	if opts.Quick {
		horizons = []int{64, 256}
		d = 4
	}
	table := metrics.NewTable("Ablation: Tree Mechanism vs naive per-step Gaussian sums",
		"T", "max error (tree)", "max error (naive)", "ratio naive/tree")
	type trialOut struct{ worstTree, worstNaive float64 }
	outs, err := parallelMap(opts.workers(), len(horizons)*opts.Trials, func(k int) (trialOut, error) {
		horizon, trial := horizons[k/opts.Trials], k%opts.Trials
		src := randx.NewSource(opts.Seed + int64(horizon*3+trial))
		tm, err := tree.New(tree.Config{Dim: d, MaxLen: horizon, Sensitivity: 2, Privacy: opts.privacy()}, src.Split())
		if err != nil {
			return trialOut{}, err
		}
		nm, err := tree.NewNaiveSum(d, horizon, 2, dp.Params{Epsilon: opts.Epsilon, Delta: opts.Delta}, src.Split())
		if err != nil {
			return trialOut{}, err
		}
		exact := make(vec.Vector, d)
		gt := make(vec.Vector, d)
		gn := make(vec.Vector, d)
		var out trialOut
		for t := 0; t < horizon; t++ {
			v := vec.Vector(src.UnitSphere(d))
			exact.AddInPlace(v)
			gt.CopyFrom(exact)
			tm.AddNoiseTo(gt, t+1)
			if err := nm.AddTo(gn, v); err != nil {
				return trialOut{}, err
			}
			if e := vec.Dist2(gt, exact); e > out.worstTree {
				out.worstTree = e
			}
			if e := vec.Dist2(gn, exact); e > out.worstNaive {
				out.worstNaive = e
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for hi, horizon := range horizons {
		var treeErr, naiveErr float64
		for trial := 0; trial < opts.Trials; trial++ {
			o := outs[hi*opts.Trials+trial]
			treeErr += o.worstTree
			naiveErr += o.worstNaive
		}
		n := float64(opts.Trials)
		ratio := 0.0
		if treeErr > 0 {
			ratio = naiveErr / treeErr
		}
		table.AddRow(fmt.Sprint(horizon), fmt.Sprintf("%.4g", treeErr/n), fmt.Sprintf("%.4g", naiveErr/n), fmt.Sprintf("%.3g", ratio))
	}
	return &Result{
		ID:    "A1",
		Title: "Ablation: Tree Mechanism vs naive per-step private sums (polylog T vs √T error)",
		Table: table,
		Notes: []string{"the naive/tree error ratio should grow with T, reflecting √T vs polylog(T) error"},
	}, nil
}
