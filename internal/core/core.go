// Package core implements the paper's primary contribution: differentially
// private incremental empirical risk minimization. It contains
//
//   - GenericERM — Mechanism PRIVINCERM, the generic transformation of a
//     private batch ERM algorithm into a private incremental one (Section 3),
//     which also serves k least-squares outcomes over one shared Gram matrix;
//   - GradientRegression — Algorithm PRIVINCREG1, private incremental linear
//     regression via a Tree-Mechanism-maintained private gradient function fed
//     to noisy projected gradient descent (Section 4);
//   - ProjectedRegression — Algorithm PRIVINCREG2, the dimension-reduced
//     variant that optimizes privately in a Gaussian random projection of the
//     problem and lifts the solution back by Minkowski-functional minimization
//     (Section 5), plus its robust extension for mixed-domain streams (§5.2);
//   - baselines: a non-private exact incremental solver and the naive private
//     recompute-every-step mechanism (GenericERM with τ = 1), both used by the
//     experiments for comparison.
//
// Every mechanism satisfies the Estimator interface: feed the stream flat
// rows — one covariate and its responses per timestep, any number of rows per
// call — with ObserveRows and read the current private parameter estimate
// with Estimate. Estimates are computed lazily — per-timestep private state is
// maintained inside ObserveRows, while any private solve Estimate triggers is
// a pure function of that state and a counter-derived noise key, so calling
// it (or not calling it) at any subset of timesteps neither changes the
// privacy guarantee nor the value any particular estimate takes.
package core

import (
	"errors"
	"fmt"

	"privreg/internal/codec"
	"privreg/internal/constraint"
	"privreg/internal/erm"
	"privreg/internal/loss"
	"privreg/internal/vec"
)

// Estimator is a streaming (incremental) ERM mechanism.
type Estimator interface {
	// Name returns a short identifier for tables and logs.
	Name() string
	// ObserveRows feeds a contiguous run of rows, one per timestep: xs holds
	// rows×d covariates and ys rows×k responses, both row-major (k = 1 except
	// for the multi-outcome engine). Splitting a run into several calls leaves
	// identical private state and consumes identical randomness. The batch is
	// checked once before any row is consumed — whole rows, and a fixed
	// horizon's capacity — so it is folded whole or not at all. Covariates
	// are clamped into the unit ball and responses into [-1, 1] as they are
	// folded; nothing references xs or ys after the call returns.
	ObserveRows(xs, ys []float64) error
	// Estimate returns the mechanism's current parameter estimate θ_t ∈ C.
	Estimate() (vec.Vector, error)
	// Len returns the number of points observed so far.
	Len() int
	// AppendState appends the estimator's complete mutable state —
	// observation counts, private accumulators, warm-start iterates, and every
	// randomness-stream position — to w in the versioned checkpoint codec. An
	// estimator constructed with the same configuration (constraint set,
	// privacy budget, horizon, options, seed) that restores this state with
	// UnmarshalBinary continues bit-identically to an uninterrupted run.
	AppendState(w *codec.Writer)
	// UnmarshalBinary restores state captured by AppendState. Structural
	// parameters embedded in the checkpoint (mechanism kind, dimensions,
	// horizon) are verified against the receiver and a mismatch is an error.
	// On error the receiver's state is unspecified and it must be discarded.
	UnmarshalBinary(data []byte) error
}

// ErrStreamFull is returned by mechanisms with a fixed horizon T when more
// than T points are observed.
var ErrStreamFull = errors.New("core: stream length exceeds the configured horizon")

// batchRows returns the number of rows in a flat batch of d-wide covariates
// xs and k responses per row ys, or an error when they are not whole rows of
// one common count.
func batchRows(xs, ys []float64, d, k int) (int, error) {
	rows := len(ys) / k
	if len(ys) != rows*k || len(xs) != rows*d {
		return 0, fmt.Errorf("core: batch of %d covariate values and %d responses is not whole rows of dimension %d with %d responses", len(xs), len(ys), d, k)
	}
	return rows, nil
}

// clampPoint rescales a covariate into the unit Euclidean ball and clamps the
// response into [-1, 1]. The mechanisms assume this normalization (‖X‖ ≤ 1,
// ‖Y‖ ≤ 1); performing it inside the mechanism keeps the stated sensitivity
// bounds valid even for mildly out-of-range inputs.
func clampPoint(p loss.Point) loss.Point {
	x := p.X.Clone()
	y := clampInto(x, p.X, p.Y)
	return loss.Point{X: x, Y: y}
}

// clampInto is the allocation-free form of clampPoint used on the per-timestep
// hot paths: it copies x into dst (same dimension), rescales dst into the unit
// Euclidean ball, and returns y clamped into [-1, 1].
func clampInto(dst, x vec.Vector, y float64) float64 {
	dst.CopyFrom(x)
	if n := vec.Norm2(dst); n > 1 {
		dst.Scale(1 / n)
	}
	return clampY(y)
}

// clampY clamps a response into [-1, 1].
func clampY(y float64) float64 {
	if y > 1 {
		return 1
	}
	if y < -1 {
		return -1
	}
	return y
}

// NonPrivateIncremental is the exact (non-private) incremental least-squares
// baseline: it folds each clamped point into single-outcome sufficient
// statistics and returns the exact constrained minimizer on demand. It is both
// the ground truth that excess risk is measured against and the "utility
// ceiling" series in the experiment tables.
type NonPrivateIncremental struct {
	c     constraint.Set
	stats *erm.MultiStats
	iters int
	xbuf  vec.Vector
	ybuf  [1]float64
	// sol memoizes the minimizer at observation count solN (solN < 0 = none):
	// the statistics are the complete solver input, so while no new points
	// arrive Estimate returns the previous solution instead of re-solving. ws
	// holds the reusable buffers of the exact solve.
	sol  vec.Vector
	solN int
	ws   erm.ExactWorkspace
}

// NewNonPrivateIncremental returns the exact baseline over constraint set c.
// iters bounds the inner solver iterations (<= 0 selects the default).
func NewNonPrivateIncremental(c constraint.Set, iters int) *NonPrivateIncremental {
	d := c.Dim()
	return &NonPrivateIncremental{c: c, stats: erm.NewMultiStats(d, 1), iters: iters, xbuf: vec.NewVector(d), solN: -1}
}

// Name implements Estimator.
func (n *NonPrivateIncremental) Name() string { return "exact-incremental" }

// ObserveRows implements Estimator.
func (n *NonPrivateIncremental) ObserveRows(xs, ys []float64) error {
	d := n.c.Dim()
	if _, err := batchRows(xs, ys, d, 1); err != nil {
		return err
	}
	for r, y := range ys {
		n.ybuf[0] = clampInto(n.xbuf, xs[r*d:(r+1)*d], y)
		n.stats.Add(n.xbuf, n.ybuf[:])
	}
	return nil
}

// Estimate implements Estimator.
func (n *NonPrivateIncremental) Estimate() (vec.Vector, error) {
	if n.solN != n.stats.Len() {
		n.sol = erm.ExactStats(&n.ws, n.stats, n.c, n.iters)
		n.solN = n.stats.Len()
	}
	return n.sol.Clone(), nil
}

// Len implements Estimator.
func (n *NonPrivateIncremental) Len() int { return n.stats.Len() }

// StateBytes reports the retained per-stream memory of the baseline: the
// sufficient statistics, the clamp buffer and the memoized solution.
func (n *NonPrivateIncremental) StateBytes() int {
	return n.stats.Bytes() + 8*(len(n.xbuf)+len(n.sol))
}

// Risk exposes the exact prefix squared-loss risk of an arbitrary parameter
// vector, computed from the sufficient statistics in O(d²). The experiments use
// it to evaluate excess risk without re-scanning the stream.
func (n *NonPrivateIncremental) Risk(theta vec.Vector) float64 { return n.stats.Risk(theta, 0) }

// Gradient exposes the exact prefix risk gradient 2(XᵀXθ - Xᵀy). The
// experiments use it to measure how far a mechanism's private gradient function
// deviates from the truth (the α of Definition 5).
func (n *NonPrivateIncremental) Gradient(theta vec.Vector) vec.Vector {
	g := vec.NewVector(len(theta))
	n.stats.GradientInto(g, theta, 0, 1, 0)
	return g
}
