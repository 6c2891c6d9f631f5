// Command privreg-bench runs the reproduction experiments of the paper
// "Private Incremental Regression" (Kasiviswanathan, Nissim, Jin — PODS 2017)
// and prints the measured tables, scaling-exponent fits, and qualitative notes:
// the paper-versus-measured record (-json for a machine-readable report).
//
// Usage:
//
//	privreg-bench -experiment all            # every experiment, full sweeps
//	privreg-bench -experiment E4 -trials 5   # one experiment, more repetitions
//	privreg-bench -list                      # list experiment IDs
//	privreg-bench -experiment all -quick     # reduced sweeps (seconds, not minutes)
//	privreg-bench -experiment E6 -workers 1  # disable the sweep worker pool
//	privreg-bench -experiment all -json      # machine-readable results on stdout
//
// Besides the paper experiments, -mechanism runs a serving-shaped throughput
// probe of a single registry mechanism (see privreg.Mechanisms): it streams T
// points scalar and batched, measures ingestion and estimate latency, and
// reports the checkpoint size:
//
//	privreg-bench -mechanism projected -T 2000 -d 128 -batch 64
//
// The process exits non-zero whenever any experiment fails, so CI smoke runs
// gate on it. With -json, stdout carries exactly one JSON document (errors go
// to stderr) for downstream perf-trajectory tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"privreg"
	"privreg/internal/experiments"
)

// jsonResult is the machine-readable form of one experiment result.
type jsonResult struct {
	ID     string             `json:"id"`
	Title  string             `json:"title"`
	Table  jsonTable          `json:"table"`
	Slopes map[string]float64 `json:"slopes,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
}

type jsonTable struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Seed        int64             `json:"seed"`
	Trials      int               `json:"trials"`
	Quick       bool              `json:"quick"`
	Workers     int               `json:"workers"`
	Epsilon     float64           `json:"epsilon"`
	Delta       float64           `json:"delta"`
	WallSeconds float64           `json:"wall_seconds"`
	Results     []jsonResult      `json:"results"`
	Throughput  []probeResult     `json:"throughput,omitempty"`
	MultiProbe  *multiProbeResult `json:"multi_outcome,omitempty"`
	Edge        []edgeResult      `json:"edge,omitempty"`
	Cluster     *clusterResult    `json:"cluster,omitempty"`
	Error       string            `json:"error,omitempty"`
}

// multiProbeResult is the amortization probe of the multi-outcome engine:
// the per-point-per-outcome ingest cost of one k-outcome estimator (one
// shared Gram fold + k O(d) vector folds per point) against k independent
// generic-erm estimators fed the same covariates (k full O(d²) folds per
// point). The ratio is the amortization the shared fold buys; CI gates the
// multi cost like the other ingest metrics.
type multiProbeResult struct {
	K                               int     `json:"k"`
	T                               int     `json:"T"`
	Dim                             int     `json:"d"`
	Batch                           int     `json:"batch"`
	NsPerPointPerOutcome            float64 `json:"ns_per_point_per_outcome"`
	IndependentNsPerPointPerOutcome float64 `json:"independent_ns_per_point_per_outcome"`
	AmortizationX                   float64 `json:"amortization_x"`
	EstimateAllNs                   float64 `json:"estimate_all_ns"`
	IndependentEstimateAllNs        float64 `json:"independent_estimate_all_ns"`
}

// probeResult is the machine-readable form of one serving-shaped throughput
// probe: the per-phase costs downstream perf-trajectory tooling
// (cmd/privreg-benchdiff, the CI bench-trajectory job) compares across PRs.
type probeResult struct {
	Mechanism        string  `json:"mechanism"`
	Algorithm        string  `json:"algorithm"`
	T                int     `json:"T"`
	Dim              int     `json:"d"`
	Batch            int     `json:"batch"`
	ScalarNsPerPoint float64 `json:"scalar_ns_per_point"`
	BatchNsPerPoint  float64 `json:"batch_ns_per_point"`
	EstimateNs       float64 `json:"estimate_ns"`
	CheckpointNs     float64 `json:"checkpoint_ns"`
	CheckpointBytes  int     `json:"checkpoint_bytes"`
}

// probeHorizon sizes the throughput-probe stream per mechanism so every
// ingest measurement integrates at least a few milliseconds of work:
// naive-recompute pays a full private batch solve per point and stays short,
// the sub-microsecond nonprivate baseline gets a long stream, and the tree
// mechanisms sit in between.
func probeHorizon(name string) int {
	switch name {
	case "naive-recompute":
		return 64
	case "nonprivate":
		return 8192
	default:
		return 512
	}
}

func toJSONResult(r *experiments.Result) jsonResult {
	out := jsonResult{ID: r.ID, Title: r.Title, Slopes: r.Slopes, Notes: r.Notes}
	if r.Table != nil {
		out.Table = jsonTable{Title: r.Table.Title, Columns: r.Table.Columns, Rows: r.Table.Rows}
	}
	return out
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		experiment = flag.String("experiment", "all", "experiment ID to run (E1..E10, A1..A5) or \"all\"")
		trials     = flag.Int("trials", 0, "independent repetitions per configuration (0 = default)")
		seed       = flag.Int64("seed", 1, "random seed")
		quick      = flag.Bool("quick", false, "run reduced sweeps")
		epsilon    = flag.Float64("epsilon", 1.0, "privacy parameter ε")
		delta      = flag.Float64("delta", 1e-6, "privacy parameter δ")
		workers    = flag.Int("workers", 0, "worker pool size for sweeps (0 = GOMAXPROCS; results are identical for any value)")
		asJSON     = flag.Bool("json", false, "emit machine-readable JSON results on stdout")
		list       = flag.Bool("list", false, "list available experiments and exit")
		mechanism  = flag.String("mechanism", "", "run a throughput probe of one registry mechanism instead of the paper experiments (see privreg-demo -list)")
		edge       = flag.Bool("edge", false, "run only the edge-throughput probes (HTTP/JSON vs binary wire) and print the rates")
		multiFl    = flag.Bool("multi", false, "run only the multi-outcome amortization probe (one k-outcome estimator vs k independent generic-erm) and print the per-outcome costs")
		outcomesFl = flag.Int("outcomes", 8, "multi-outcome probe: outcome-column count k")
		clusterFl  = flag.Bool("cluster", false, "run only the cluster-throughput probe (3-node ring, binary wire, ring-aware routing) and print the rate")
		horizon    = flag.Int("T", 1000, "throughput probe: stream length")
		dim        = flag.Int("d", 32, "throughput probe: covariate dimension")
		batch      = flag.Int("batch", 32, "throughput probe: batch size for the batched ingestion pass")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit (pprof format)")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	defer stopProfiles()

	if *list {
		fmt.Println("Available experiments:")
		for _, e := range experiments.Registry() {
			fmt.Printf("  %s\n", e.ID)
		}
		return 0
	}

	if *mechanism != "" {
		return runThroughputProbe(*mechanism, *horizon, *dim, *batch, *epsilon, *delta, *seed, *asJSON)
	}

	if *edge {
		return runEdgeCLI(*quick, *seed, *asJSON)
	}

	if *multiFl {
		return runMultiCLI(*outcomesFl, *horizon, *dim, *batch, *epsilon, *delta, *seed, *asJSON)
	}

	if *clusterFl {
		return runClusterCLI(*quick, *seed, *asJSON)
	}

	opts := experiments.Options{
		Trials:  *trials,
		Seed:    *seed,
		Quick:   *quick,
		Epsilon: *epsilon,
		Delta:   *delta,
		Workers: *workers,
	}

	start := time.Now()
	var results []*experiments.Result
	var runErr error
	if *experiment == "all" {
		results, runErr = experiments.All(opts)
	} else {
		var r *experiments.Result
		r, runErr = experiments.Run(*experiment, opts)
		if r != nil {
			results = append(results, r)
		}
	}
	elapsed := time.Since(start)

	if *asJSON {
		report := jsonReport{
			Seed:        *seed,
			Trials:      *trials,
			Quick:       *quick,
			Workers:     *workers,
			Epsilon:     *epsilon,
			Delta:       *delta,
			WallSeconds: elapsed.Seconds(),
		}
		for _, r := range results {
			report.Results = append(report.Results, toJSONResult(r))
		}
		// The JSON report doubles as the perf-trajectory artifact, so append a
		// serving-shaped throughput probe of every registry mechanism, then the
		// edge probes that measure the two serving transports end to end.
		if runErr == nil {
			for _, name := range privreg.Mechanisms() {
				p, err := probe(name, probeHorizon(name), 32, 32, *epsilon, *delta, *seed)
				if err != nil {
					runErr = fmt.Errorf("throughput probe %q: %w", name, err)
					break
				}
				report.Throughput = append(report.Throughput, *p)
			}
		}
		if runErr == nil {
			m, err := multiProbe(8, 512, 32, 32, *epsilon, *delta, *seed)
			if err != nil {
				runErr = fmt.Errorf("multi-outcome probe: %w", err)
			} else {
				report.MultiProbe = m
			}
		}
		if runErr == nil {
			var err error
			report.Edge, err = runEdgeProbes(*quick, *seed)
			if err != nil {
				runErr = err
			}
		}
		if runErr == nil {
			var err error
			report.Cluster, err = runClusterProbe(*quick, *seed)
			if err != nil {
				runErr = err
			}
			report.WallSeconds = time.Since(start).Seconds()
		}
		if runErr != nil {
			report.Error = runErr.Error()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		if runErr != nil {
			fmt.Fprintln(os.Stderr, "error:", runErr)
			return 1
		}
		return 0
	}

	for _, r := range results {
		fmt.Println(r)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "error:", runErr)
		return 1
	}
	fmt.Printf("total wall time: %s\n", elapsed.Round(time.Millisecond))
	return 0
}

// startProfiles arms the optional -cpuprofile / -memprofile outputs and
// returns the function that finalizes them. The CPU profile samples everything
// between flag parsing and process exit; the heap profile is a single snapshot
// taken after a forced GC so it reflects live retained state, not garbage.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "error: close cpu profile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error: create mem profile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "error: write mem profile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "error: close mem profile:", err)
			}
		}
	}, nil
}

// runThroughputProbe is the -mechanism CLI entry: run one probe and print it
// human-readably, or as a single JSON document with -json.
func runThroughputProbe(name string, horizon, dim, batch int, epsilon, delta float64, seed int64, asJSON bool) int {
	p, err := probe(name, horizon, dim, batch, epsilon, delta, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		fmt.Fprintln(os.Stderr, "registered mechanisms:", strings.Join(privreg.Mechanisms(), ", "))
		return 2
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(p); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		return 0
	}
	perPoint := func(ns float64) time.Duration { return time.Duration(ns) }
	fmt.Printf("mechanism %q (%s): T=%d d=%d (ε=%g, δ=%g)\n", p.Mechanism, p.Algorithm, p.T, p.Dim, epsilon, delta)
	fmt.Printf("  scalar ingest : %10s total, %8s/point\n",
		time.Duration(p.ScalarNsPerPoint*float64(p.T)).Round(time.Microsecond), perPoint(p.ScalarNsPerPoint))
	fmt.Printf("  batch ingest  : %10s total, %8s/point (batch=%d)\n",
		time.Duration(p.BatchNsPerPoint*float64(p.T)).Round(time.Microsecond), perPoint(p.BatchNsPerPoint), p.Batch)
	fmt.Printf("  estimate      : %10s\n", time.Duration(p.EstimateNs).Round(time.Microsecond))
	fmt.Printf("  checkpoint    : %10s, %d bytes\n", time.Duration(p.CheckpointNs).Round(time.Microsecond), p.CheckpointBytes)
	return 0
}

// timePhase measures fn by repetition until at least 10ms of wall time has
// accumulated (capped at 1024 reps for expensive operations), returning the
// mean duration — stable enough for the bench-trajectory ratio comparison
// even when a single call is nanoseconds.
func timePhase(fn func() error) (time.Duration, error) {
	const (
		minWindow = 10 * time.Millisecond
		maxReps   = 1024
	)
	start := time.Now()
	reps := 0
	for {
		if err := fn(); err != nil {
			return 0, err
		}
		reps++
		if elapsed := time.Since(start); elapsed >= minWindow || reps >= maxReps {
			return elapsed / time.Duration(reps), nil
		}
	}
}

// probe streams a synthetic workload through one mechanism resolved by
// registry name: a scalar Observe pass, a batched ObserveBatch pass, an
// estimate, and a checkpoint, measuring wall time per phase. It is the
// serving-shaped complement to the paper experiments.
func probe(name string, horizon, dim, batch int, epsilon, delta float64, seed int64) (*probeResult, error) {
	info, err := privreg.Describe(name)
	if err != nil {
		return nil, err
	}
	if batch < 1 {
		batch = 1
	}
	build := func() (privreg.Estimator, error) {
		opts := []privreg.Option{
			privreg.WithEpsilonDelta(epsilon, delta),
			privreg.WithHorizon(horizon),
			privreg.WithConstraint(privreg.L2Constraint(dim, 1)),
			privreg.WithSeed(seed),
		}
		if info.NeedsDomain {
			opts = append(opts, privreg.WithDomain(privreg.UnitBallDomain(dim)))
		}
		if info.NeedsOracle {
			opts = append(opts, privreg.WithDomainOracle(func([]float64) bool { return true }))
		}
		return privreg.New(info.Name, opts...)
	}

	xs := make([][]float64, horizon)
	ys := make([]float64, horizon)
	for i := range xs {
		x := make([]float64, dim)
		x[i%dim] = 0.8
		x[(i+1)%dim] = -0.4
		xs[i] = x
		ys[i] = 0.5 * x[i%dim]
	}

	scalar, err := build()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < horizon; i++ {
		if err := scalar.Observe(xs[i], ys[i]); err != nil {
			return nil, err
		}
	}
	scalarElapsed := time.Since(start)

	batched, err := build()
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for lo := 0; lo < horizon; lo += batch {
		hi := lo + batch
		if hi > horizon {
			hi = horizon
		}
		if err := batched.ObserveBatch(xs[lo:hi], ys[lo:hi]); err != nil {
			return nil, err
		}
	}
	batchElapsed := time.Since(start)

	// Estimate and checkpoint are single operations, so one sample is timer
	// noise (tens of nanoseconds for the lazy mechanisms); repeat each until
	// it has integrated a real wall-time window and report the mean. The
	// first estimate folds in the deferred running-sum aggregation — a real
	// serving cost, so it stays in the mean rather than being discarded as
	// warm-up.
	estimateElapsed, err := timePhase(func() error {
		_, err := batched.Estimate()
		return err
	})
	if err != nil {
		return nil, err
	}

	var ckpt []byte
	ckptElapsed, err := timePhase(func() error {
		var err error
		ckpt, err = batched.MarshalBinary()
		return err
	})
	if err != nil {
		return nil, err
	}

	return &probeResult{
		Mechanism:        info.Name,
		Algorithm:        scalar.Name(),
		T:                horizon,
		Dim:              dim,
		Batch:            batch,
		ScalarNsPerPoint: float64(scalarElapsed.Nanoseconds()) / float64(horizon),
		BatchNsPerPoint:  float64(batchElapsed.Nanoseconds()) / float64(horizon),
		EstimateNs:       float64(estimateElapsed.Nanoseconds()),
		CheckpointNs:     float64(ckptElapsed.Nanoseconds()),
		CheckpointBytes:  len(ckpt),
	}, nil
}

// multiProbe measures the amortization of the multi-outcome engine: the same
// T covariates carry k responses each, ingested once through a single
// k-outcome estimator (one shared O(d²) Gram fold plus k O(d) vector folds
// per point) and once through k independent generic-erm estimators (k full
// O(d²) folds per point). Both sides ingest batched through their flat entry
// points, then solve all k estimates; costs are reported per point per
// outcome so the two are directly comparable and AmortizationX is their
// ratio.
func multiProbe(k, horizon, dim, batch int, epsilon, delta float64, seed int64) (*multiProbeResult, error) {
	if k < 2 {
		return nil, fmt.Errorf("multi-outcome probe needs k >= 2 outcomes, got %d", k)
	}
	if batch < 1 {
		batch = 1
	}
	baseOpts := func(seed int64) []privreg.Option {
		return []privreg.Option{
			privreg.WithEpsilonDelta(epsilon, delta),
			privreg.WithHorizon(horizon),
			privreg.WithConstraint(privreg.L2Constraint(dim, 1)),
			privreg.WithSeed(seed),
		}
	}

	est, err := privreg.New("multi-outcome", append(baseOpts(seed), privreg.WithOutcomes(k))...)
	if err != nil {
		return nil, err
	}
	multi, ok := est.(privreg.MultiEstimator)
	if !ok {
		return nil, fmt.Errorf("multi-outcome estimator does not implement MultiEstimator")
	}
	indep := make([]privreg.FlatObserver, k)
	indepEst := make([]privreg.Estimator, k)
	for o := 0; o < k; o++ {
		e, err := privreg.New("generic-erm", baseOpts(seed+int64(o))...)
		if err != nil {
			return nil, err
		}
		fo, ok := e.(privreg.FlatObserver)
		if !ok {
			return nil, fmt.Errorf("generic-erm estimator does not implement FlatObserver")
		}
		indep[o], indepEst[o] = fo, e
	}

	// Deterministic workload, same covariate pattern as probe(); outcome o's
	// response reads a different coordinate so the k regressions differ.
	xs := make([]float64, horizon*dim)
	ys := make([]float64, horizon*k)
	for i := 0; i < horizon; i++ {
		row := xs[i*dim : (i+1)*dim]
		row[i%dim] = 0.8
		row[(i+1)%dim] = -0.4
		for o := 0; o < k; o++ {
			ys[i*k+o] = 0.5 * row[(i+o)%dim]
		}
	}
	cols := make([][]float64, k) // per-outcome response columns for the independents
	for o := 0; o < k; o++ {
		col := make([]float64, horizon)
		for i := 0; i < horizon; i++ {
			col[i] = ys[i*k+o]
		}
		cols[o] = col
	}

	start := time.Now()
	for lo := 0; lo < horizon; lo += batch {
		hi := lo + batch
		if hi > horizon {
			hi = horizon
		}
		if err := multi.ObserveMultiFlat(dim, xs[lo*dim:hi*dim], ys[lo*k:hi*k]); err != nil {
			return nil, err
		}
	}
	multiElapsed := time.Since(start)

	start = time.Now()
	for o := 0; o < k; o++ {
		for lo := 0; lo < horizon; lo += batch {
			hi := lo + batch
			if hi > horizon {
				hi = horizon
			}
			if err := indep[o].ObserveFlat(dim, xs[lo*dim:hi*dim], cols[o][lo:hi]); err != nil {
				return nil, err
			}
		}
	}
	indepElapsed := time.Since(start)

	estimateAll, err := timePhase(func() error {
		for o := 0; o < k; o++ {
			if _, err := multi.EstimateOutcome(o); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	indepEstimateAll, err := timePhase(func() error {
		for o := 0; o < k; o++ {
			if _, err := indepEst[o].Estimate(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	perOutcome := float64(multiElapsed.Nanoseconds()) / float64(horizon*k)
	indepPerOutcome := float64(indepElapsed.Nanoseconds()) / float64(horizon*k)
	return &multiProbeResult{
		K:                               k,
		T:                               horizon,
		Dim:                             dim,
		Batch:                           batch,
		NsPerPointPerOutcome:            perOutcome,
		IndependentNsPerPointPerOutcome: indepPerOutcome,
		AmortizationX:                   indepPerOutcome / perOutcome,
		EstimateAllNs:                   float64(estimateAll.Nanoseconds()),
		IndependentEstimateAllNs:        float64(indepEstimateAll.Nanoseconds()),
	}, nil
}

// runMultiCLI is the -multi CLI entry: run the amortization probe once and
// print it human-readably, or as a single JSON document with -json.
func runMultiCLI(k, horizon, dim, batch int, epsilon, delta float64, seed int64, asJSON bool) int {
	m, err := multiProbe(k, horizon, dim, batch, epsilon, delta, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 2
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		return 0
	}
	fmt.Printf("multi-outcome amortization: k=%d T=%d d=%d batch=%d (ε=%g, δ=%g)\n", m.K, m.T, m.Dim, m.Batch, epsilon, delta)
	fmt.Printf("  shared fold   : %8.0f ns/point/outcome (one estimator, k outcomes)\n", m.NsPerPointPerOutcome)
	fmt.Printf("  independent   : %8.0f ns/point/outcome (%d generic-erm estimators)\n", m.IndependentNsPerPointPerOutcome, m.K)
	fmt.Printf("  amortization  : %8.1fx\n", m.AmortizationX)
	fmt.Printf("  estimate all k: %10s shared, %10s independent\n",
		time.Duration(m.EstimateAllNs).Round(time.Microsecond), time.Duration(m.IndependentEstimateAllNs).Round(time.Microsecond))
	return 0
}
