package privreg

import (
	"errors"
	"fmt"

	"privreg/internal/codec"
	"privreg/internal/core"
	"privreg/internal/dp"
	"privreg/internal/erm"
	"privreg/internal/loss"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// Privacy is an (ε, δ) differential-privacy budget for the entire output
// sequence of an estimator.
type Privacy struct {
	// Epsilon is the privacy-loss bound; must be positive.
	Epsilon float64
	// Delta is the failure probability of the ε bound; must lie in [0, 1) and
	// be strictly positive for the regression mechanisms (they use Gaussian
	// noise).
	Delta float64
}

func (p Privacy) params() dp.Params { return dp.Params{Epsilon: p.Epsilon, Delta: p.Delta} }

// Loss selects the per-datapoint loss of the generic incremental ERM mechanism.
type Loss int

// Supported losses of the generic-erm and naive-recompute mechanisms (WithLoss).
const (
	// SquaredLoss is (y - <x, θ>)², the linear-regression loss.
	SquaredLoss Loss = iota
	// LogisticLoss is ln(1 + exp(-y<x, θ>)), the logistic-regression loss with
	// labels in {-1, +1}.
	LogisticLoss
	// HingeLoss is max(0, 1 - y<x, θ>), the SVM loss.
	HingeLoss
)

func (l Loss) function() (loss.Function, error) {
	switch l {
	case SquaredLoss:
		return loss.Squared{}, nil
	case LogisticLoss:
		return loss.Logistic{}, nil
	case HingeLoss:
		return loss.Hinge{}, nil
	default:
		return nil, fmt.Errorf("privreg: unknown loss %d", int(l))
	}
}

// ErrStreamFull is returned by Observe and ObserveBatch when a fixed-horizon
// mechanism has already consumed its configured T elements (for ObserveBatch,
// when the batch would overrun it — the batch is then rejected whole).
var ErrStreamFull = core.ErrStreamFull

// Estimator is a streaming private (or baseline) ERM mechanism. Feed the stream
// one labelled point at a time with Observe (or in batches with ObserveBatch);
// Estimate returns the current parameter estimate for the prefix observed so
// far. Estimates are lazy post-processing of already-private state, so Estimate
// may be called at any subset of timesteps (or repeatedly) without affecting
// the privacy guarantee.
//
// Estimators are not safe for concurrent use; wrap them in a Pool (which
// shards and locks per stream) when serving many goroutines.
type Estimator interface {
	// Name identifies the mechanism's algorithm (e.g. "priv-inc-reg1").
	Name() string
	// Mechanism returns the registry name the estimator was constructed under
	// (e.g. "gradient"), the value to pass to New to build a compatible
	// instance for restoring a checkpoint.
	Mechanism() string
	// Observe feeds the next covariate/response pair. Covariates are clipped to
	// the unit Euclidean ball and responses to [-1, 1], the normalization the
	// privacy analysis assumes. A covariate whose length is not the
	// constraint's dimension, or a NaN or ±Inf value, is rejected and
	// consumes nothing.
	Observe(x []float64, y float64) error
	// ObserveBatch feeds a contiguous run of covariate/response pairs.
	// Semantically equivalent to calling Observe on each pair in order —
	// identical private state, identical randomness consumption — but validated
	// up front (a batch that would overrun a fixed horizon, or carries a row
	// of the wrong dimension or a non-finite value, is rejected whole,
	// before any element is consumed) and amortized: the continual-sum
	// mechanisms defer their running-sum aggregation to the end of the batch,
	// so per-point ingestion cost drops for batched arrivals.
	ObserveBatch(xs [][]float64, ys []float64) error
	// Estimate returns the current estimate θ_t, an element of the constraint
	// set.
	Estimate() ([]float64, error)
	// Len returns the number of observations so far.
	Len() int
	// MarshalBinary serializes the estimator's complete mutable state —
	// observation counts, private accumulators, warm-start iterates, the keys
	// its counter-keyed noise is drawn from, and a projected mechanism's
	// sketch seed — as a versioned checkpoint. An estimator constructed with
	// the same mechanism and options (including the seed) that restores the
	// checkpoint with UnmarshalBinary continues bit-identically to an
	// uninterrupted run: checkpoint/restore is invisible in the output
	// sequence. See docs/SERVING.md for restart semantics.
	MarshalBinary() ([]byte, error)
	// UnmarshalBinary restores a checkpoint produced by MarshalBinary on an
	// estimator of the same mechanism and configuration. Mechanism kind and
	// structural parameters (dimensions, horizon) are verified and a mismatch
	// is an error. On error the estimator's state is unspecified and it must
	// be discarded.
	UnmarshalBinary(data []byte) error
}

// FlatObserver is the zero-copy batch-ingest extension of Estimator: a flat
// row-major covariate buffer (len(ys)×dim values) instead of a [][]float64.
// It exists for network edges that decode wire frames straight into pooled
// float buffers — ObserveFlat reads rows as subslices of xs, builds no
// intermediate per-row structures, and is bit-identical to the equivalent
// ObserveBatch call (mechanisms copy what they keep, so xs may be reused the
// moment the call returns).
//
// Every estimator returned by New implements FlatObserver; the interface is
// separate so existing Estimator implementations stay valid.
type FlatObserver interface {
	// ObserveFlat feeds len(ys) points whose covariates are packed row-major
	// in xs: point i is (xs[i*dim:(i+1)*dim], ys[i]). Validation and horizon
	// semantics match ObserveBatch (all-or-nothing). On an estimator serving
	// k > 1 outcomes it is ObserveMultiFlat: ys then holds k responses per row.
	ObserveFlat(dim int, xs []float64, ys []float64) error
}

// MultiEstimator is the k-outcome extension of Estimator, implemented by
// estimators of the "multi-outcome" mechanism (privreg.New("multi-outcome",
// WithOutcomes(k), ...)): each observed row carries one covariate and k
// responses, folded into a single shared feature-side state plus k per-outcome
// moment vectors, and each outcome's estimate is a lazy memoized solve under
// its share of the split budget.
//
// Every estimator returned by New implements the interface; on single-outcome
// mechanisms the methods degrade gracefully (Outcomes reports 1, rows carry
// one response and wider rows are rejected, and outcome 0 is Estimate).
type MultiEstimator interface {
	Estimator
	// Outcomes returns the number of outcome columns k.
	Outcomes() int
	// ObserveMulti feeds one row: a covariate with all k responses.
	ObserveMulti(x []float64, ys []float64) error
	// ObserveMultiFlat feeds rows packed flat: row-major covariates
	// (rows×dim values) and row-major responses (rows×k values). Validation
	// and horizon semantics match ObserveBatch (all-or-nothing); xs and ys may
	// be reused the moment the call returns.
	ObserveMultiFlat(dim int, xs []float64, ys []float64) error
	// EstimateOutcome returns outcome i's current estimate θ_t ∈ C.
	EstimateOutcome(i int) ([]float64, error)
}

// config is the flat construction state the With… options fill in; settings
// carries it alongside the per-mechanism extras.
type config struct {
	// Privacy is the total (ε, δ) budget for the whole stream. Ignored by the
	// non-private baseline.
	Privacy Privacy
	// Horizon is the stream length T (an upper bound is fine). Required unless
	// UnknownHorizon is set on a regression mechanism.
	Horizon int
	// Constraint is the constraint set C the estimates must lie in. Required.
	Constraint Constraint
	// Domain describes the covariate domain X. Required by the projected
	// mechanisms (its Gaussian width sizes the sketch); optional elsewhere.
	Domain Domain
	// Seed seeds all randomness (noise and projections) for reproducibility.
	Seed int64
	// WarmStart makes the per-timestep optimizer start from the previous
	// estimate rather than from scratch. The regression mechanisms read an
	// L2-ball solve domain exactly, so there it has no effect.
	WarmStart bool
	// UnknownHorizon switches the regression mechanisms to the Hybrid
	// continual-sum mechanism so that Horizon only acts as an optimization
	// heuristic, not a hard limit.
	UnknownHorizon bool
	// MaxIterations caps the per-estimate optimizer iterations (0 = default).
	// For the regression mechanisms it governs only solve domains other than
	// an L2 ball, which is read exactly.
	MaxIterations int
	// HistoryCap bounds the history the slow-path mechanisms retain for
	// losses without quadratic sufficient statistics (0 = full history).
	HistoryCap int
	// Outcomes is the number of outcome columns k of the multi-outcome
	// mechanism (0 means 1).
	Outcomes int
}

func (cfg config) validate(needDomain bool) error {
	if !cfg.Constraint.valid() {
		return errors.New("privreg: a constraint is required (set it with WithConstraint)")
	}
	if cfg.Horizon <= 0 && !cfg.UnknownHorizon {
		return errors.New("privreg: the horizon must be positive (set it with WithHorizon, or use WithUnknownHorizon)")
	}
	if needDomain && !cfg.Domain.valid() {
		return errors.New("privreg: this mechanism requires a covariate domain (set it with WithDomain)")
	}
	if needDomain && cfg.Domain.valid() && cfg.Domain.Dim() != cfg.Constraint.Dim() {
		return errors.New("privreg: domain and constraint dimensions differ")
	}
	return nil
}

// outcomes is the number of responses per row k: Outcomes, or 1 when unset.
// Construction rejects k > 1 on single-outcome mechanisms.
func (cfg config) outcomes() int { return max(cfg.Outcomes, 1) }

func (cfg config) horizonOrDefault() int {
	if cfg.Horizon > 0 {
		return cfg.Horizon
	}
	// A generous default used only for optimizer heuristics when the horizon is
	// unknown.
	return 1 << 20
}

// estimatorAdapter adapts an internal core.Estimator to the public Estimator
// interface (plain []float64 at the boundary) and stamps checkpoints with the
// registry name so restores are routed to a compatible instance.
type estimatorAdapter struct {
	inner     core.Estimator
	mechanism string
	// dim and outcomes are the row shape every ingest must match: covariate
	// dimension d and responses per row k.
	dim, outcomes int
	// flat packs nested ObserveBatch rows; it is reused across calls so
	// steady-state ingest allocates nothing per batch.
	flat []float64
	y1   [1]float64
}

func (a *estimatorAdapter) Name() string { return a.inner.Name() }

func (a *estimatorAdapter) Mechanism() string { return a.mechanism }

// checkRows validates a flat row batch for an estimator of covariate
// dimension d serving k outcomes: rows are dim wide, xs holds rows×d values
// and ys rows×k, and every value is finite. A NaN or ±Inf would survive the
// mechanisms' clamping and corrupt the stream's state for good — its later
// releases would then show the value was there, with no noise to hide it —
// so it is rejected before the stream is touched.
func checkRows(d, k, dim int, xs, ys []float64) error {
	if dim != d {
		return fmt.Errorf("privreg: rows have covariate dimension %d, estimator dimension is %d", dim, d)
	}
	rows := len(xs) / d
	if len(xs) != rows*d || len(ys) != rows*k {
		return fmt.Errorf("privreg: flat batch of %d covariate values and %d responses is not whole rows of dim %d with %d outcomes", len(xs), len(ys), d, k)
	}
	if i := nonFinite(xs); i >= 0 {
		return fmt.Errorf("privreg: row %d has a non-finite covariate %v", i/d, xs[i])
	}
	if i := nonFinite(ys); i >= 0 {
		return fmt.Errorf("privreg: row %d has a non-finite response %v", i/k, ys[i])
	}
	return nil
}

// nonFinite returns the index of the first NaN or ±Inf in vs, or -1. v - v
// is 0 for every finite v and NaN for NaN and ±Inf.
func nonFinite(vs []float64) int {
	for i, v := range vs {
		if v-v != 0 {
			return i
		}
	}
	return -1
}

// observe is the adapter's single ingest entry: every Observe* method is a
// shape adapter onto it. The batch is validated whole before any row reaches
// the mechanism, so a malformed batch leaves the stream untouched. Rows are
// read as subslices of xs, and the mechanism keeps no reference to xs or ys.
func (a *estimatorAdapter) observe(dim int, xs, ys []float64) error {
	if err := checkRows(a.dim, a.outcomes, dim, xs, ys); err != nil {
		return err
	}
	return a.inner.ObserveRows(xs, ys)
}

func (a *estimatorAdapter) Observe(x []float64, y float64) error {
	a.y1[0] = y
	return a.observe(len(x), x, a.y1[:])
}

func (a *estimatorAdapter) ObserveBatch(xs [][]float64, ys []float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("privreg: batch covariate count %d does not match response count %d", len(xs), len(ys))
	}
	a.flat = a.flat[:0]
	for i, x := range xs {
		if len(x) != a.dim {
			return fmt.Errorf("privreg: batch element %d has dimension %d, estimator dimension is %d", i, len(x), a.dim)
		}
		a.flat = append(a.flat, x...)
	}
	return a.observe(a.dim, a.flat, ys)
}

// ObserveFlat implements FlatObserver. It is ObserveMultiFlat under its
// single-outcome name.
func (a *estimatorAdapter) ObserveFlat(dim int, xs []float64, ys []float64) error {
	return a.observe(dim, xs, ys)
}

// Outcomes implements MultiEstimator: the mechanism's outcome count, 1 for
// single-outcome mechanisms.
func (a *estimatorAdapter) Outcomes() int { return a.outcomes }

// ObserveMulti implements MultiEstimator. On single-outcome mechanisms the
// row must carry exactly one response.
func (a *estimatorAdapter) ObserveMulti(x []float64, ys []float64) error {
	return a.observe(len(x), x, ys)
}

// ObserveMultiFlat implements MultiEstimator. It is the zero-copy ingest
// path: rows flow straight from a decoded frame into the mechanism's fold.
func (a *estimatorAdapter) ObserveMultiFlat(dim int, xs []float64, ys []float64) error {
	return a.observe(dim, xs, ys)
}

// EstimateOutcome implements MultiEstimator. Outcome 0 is Estimate; other
// indices need a mechanism serving several outcomes.
func (a *estimatorAdapter) EstimateOutcome(i int) ([]float64, error) {
	if i == 0 {
		return a.Estimate()
	}
	multi, ok := a.inner.(interface {
		EstimateOutcome(i int) (vec.Vector, error)
	})
	if !ok {
		return nil, fmt.Errorf("privreg: mechanism %q serves a single outcome, index %d out of range", a.mechanism, i)
	}
	theta, err := multi.EstimateOutcome(i)
	if err != nil {
		return nil, err
	}
	return []float64(theta), nil
}

func (a *estimatorAdapter) Estimate() ([]float64, error) {
	theta, err := a.inner.Estimate()
	if err != nil {
		return nil, err
	}
	return []float64(theta), nil
}

func (a *estimatorAdapter) Len() int { return a.inner.Len() }

// StateBytes reports the estimator's retained in-memory state (sufficient
// statistics, history buffers, solver workspaces) when the underlying
// mechanism tracks it, and 0 otherwise. The pool's store caches the value
// per stream and aggregates it into PoolStats.RetainedBytes.
func (a *estimatorAdapter) StateBytes() int {
	if sz, ok := a.inner.(interface{ StateBytes() int }); ok {
		return sz.StateBytes()
	}
	return 0
}

// checkpointMagic identifies a privreg estimator checkpoint; the byte after it
// is the envelope format version. Version 2 marks the counter-keyed lazy
// noise scheme of the continual-sum mechanisms (noise is a pure function of
// (key, node), so checkpoints persist keys instead of generator positions);
// version-1 checkpoints are rejected with a version error and cannot be
// migrated (their remaining noise stream is not reconstructible under the new
// scheme).
const (
	checkpointMagic   = "PRCK"
	checkpointVersion = 2
)

// MarshalBinary writes the envelope and the mechanism's section, nested in
// place, into one buffer.
func (a *estimatorAdapter) MarshalBinary() ([]byte, error) {
	var w codec.Writer
	w.Grow(64 + len(a.mechanism))
	w.String(checkpointMagic)
	w.Version(checkpointVersion)
	w.String(a.mechanism)
	w.Nested(a.inner)
	return w.Bytes(), nil
}

func (a *estimatorAdapter) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	if r.String() != checkpointMagic {
		return errors.New("privreg: not a privreg checkpoint (bad magic)")
	}
	r.Version(checkpointVersion)
	mech := r.String()
	inner := r.Blob()
	if err := r.Finish(); err != nil {
		return err
	}
	if mech != a.mechanism {
		return fmt.Errorf("privreg: checkpoint is for mechanism %q, estimator is %q", mech, a.mechanism)
	}
	return a.inner.UnmarshalBinary(inner)
}

// ExcessRisk returns the excess empirical squared-loss risk of estimate on the
// given prefix: Σ(y_i - <x_i, θ>)² minus the minimum achievable over the
// constraint set. It is the quantity bounded by Definition 1 of the paper and
// is what the privreg-bench experiments report.
func ExcessRisk(cons Constraint, xs [][]float64, ys []float64, estimate []float64) (float64, error) {
	if !cons.valid() {
		return 0, errors.New("privreg: invalid constraint")
	}
	if len(xs) != len(ys) {
		return 0, errors.New("privreg: covariate and response counts differ")
	}
	d := cons.Dim()
	for i, x := range xs {
		if len(x) != d {
			return 0, fmt.Errorf("privreg: covariate %d has dimension %d, want %d", i, len(x), d)
		}
	}
	if len(estimate) != d {
		return 0, fmt.Errorf("privreg: estimate has dimension %d, want %d", len(estimate), d)
	}
	stats := erm.NewMultiStats(d, 1)
	for i, x := range xs {
		stats.AddRows(x, ys[i:i+1])
	}
	exact := erm.ExactStats(nil, stats, cons.set, 0)
	excess := stats.Risk(vec.Vector(estimate), 0) - stats.Risk(exact, 0)
	if excess < 0 {
		excess = 0
	}
	return excess, nil
}

// GaussianWidthOf estimates the Gaussian width of a constraint set by Monte
// Carlo; exposed because width is the key quantity users need when deciding
// between the "gradient" and "projected" mechanisms.
func GaussianWidthOf(cons Constraint, samples int, seed int64) (float64, error) {
	if !cons.valid() {
		return 0, errors.New("privreg: invalid constraint")
	}
	if samples <= 0 {
		samples = 200
	}
	src := randx.NewSource(seed)
	var sum float64
	for i := 0; i < samples; i++ {
		g := vec.Vector(src.NormalVector(cons.Dim(), 1))
		sum += cons.set.SupportFunction(g)
	}
	return sum / float64(samples), nil
}
