package privreg

import (
	"errors"
	"fmt"
	"math"
)

// settings is the resolved construction state an Option list produces: the
// flat config plus the per-mechanism extras that never belonged in it, the
// loss of the ERM mechanisms and the domain oracle of the robust mechanism.
type settings struct {
	cfg     config
	loss    Loss
	lossSet bool
	oracle  func(x []float64) bool

	// Pool-scoped storage options (rejected by New; see NewPool).
	storeCap int
	spillDir string
}

// Option configures the construction of an estimator (or of every estimator a
// Pool manages). Options are applied in order; later options override earlier
// ones. Construct them with the With… functions.
type Option func(*settings) error

// WithPrivacy sets the total (ε, δ) differential-privacy budget for the whole
// stream. Every private mechanism in this package uses Gaussian noise, so it
// requires ε > 0 and δ ∈ (0, 1); violations are reported at construction, not
// at first use.
func WithPrivacy(p Privacy) Option {
	return func(s *settings) error {
		s.cfg.Privacy = p
		return nil
	}
}

// WithEpsilonDelta is shorthand for WithPrivacy(Privacy{Epsilon: epsilon,
// Delta: delta}).
func WithEpsilonDelta(epsilon, delta float64) Option {
	return WithPrivacy(Privacy{Epsilon: epsilon, Delta: delta})
}

// WithHorizon sets the stream length T (an upper bound is fine). Required
// unless WithUnknownHorizon is used.
func WithHorizon(t int) Option {
	return func(s *settings) error {
		if t <= 0 {
			return fmt.Errorf("privreg: WithHorizon requires a positive horizon, got %d", t)
		}
		s.cfg.Horizon = t
		return nil
	}
}

// WithUnknownHorizon switches the regression mechanisms to the Hybrid
// continual-sum mechanism, which needs no a-priori stream length; any horizon
// set with WithHorizon then only tunes optimizer heuristics.
func WithUnknownHorizon() Option {
	return func(s *settings) error {
		s.cfg.UnknownHorizon = true
		return nil
	}
}

// WithConstraint sets the constraint set C the estimates must lie in.
// Required by every mechanism.
func WithConstraint(c Constraint) Option {
	return func(s *settings) error {
		if !c.valid() {
			return errors.New("privreg: WithConstraint requires a constraint built by one of the constructors")
		}
		s.cfg.Constraint = c
		return nil
	}
}

// WithDomain describes the covariate domain X. Required by the projected
// mechanisms (its Gaussian width sizes the sketch); optional elsewhere.
func WithDomain(d Domain) Option {
	return func(s *settings) error {
		if !d.valid() {
			return errors.New("privreg: WithDomain requires a domain built by one of the constructors")
		}
		s.cfg.Domain = d
		return nil
	}
}

// WithSeed seeds all randomness (noise, projections) for reproducibility. Two
// estimators built with the same options and fed the same stream produce
// identical outputs.
func WithSeed(seed int64) Option {
	return func(s *settings) error {
		s.cfg.Seed = seed
		return nil
	}
}

// WithWarmStart controls whether each Estimate starts its optimizer from the
// previous estimate instead of from scratch. The gradient, projected and
// robust-projected mechanisms read an L2-ball solve domain exactly, with no
// start point, so for them it governs only other domains.
func WithWarmStart(enabled bool) Option {
	return func(s *settings) error {
		s.cfg.WarmStart = enabled
		return nil
	}
}

// WithMaxIterations caps the per-estimate optimizer iterations (0 restores the
// default). For the gradient, projected and robust-projected mechanisms it
// governs only solve domains other than an L2 ball, which is read exactly.
func WithMaxIterations(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("privreg: WithMaxIterations requires a non-negative count, got %d", n)
		}
		s.cfg.MaxIterations = n
		return nil
	}
}

// WithHistoryCap bounds the history the slow-path mechanisms (generic-erm,
// naive-recompute) retain for losses without quadratic sufficient statistics:
// only the most recent n points are kept, and each private solve runs over
// that window instead of the full prefix (0 restores unbounded history).
// Quadratic losses fold the stream into O(d²) statistics and ignore the cap.
func WithHistoryCap(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("privreg: WithHistoryCap requires a non-negative count, got %d", n)
		}
		s.cfg.HistoryCap = n
		return nil
	}
}

// WithOutcomes sets the number of outcome columns k of the multi-outcome
// mechanism: every observed row then carries one covariate and k responses,
// served by k regressions that share one feature-side state under a split
// budget. Mechanisms that serve a single outcome reject k > 1. Zero restores
// the default of one outcome.
func WithOutcomes(k int) Option {
	return func(s *settings) error {
		if k < 0 {
			return fmt.Errorf("privreg: WithOutcomes requires a non-negative count, got %d", k)
		}
		s.cfg.Outcomes = k
		return nil
	}
}

// WithLoss selects the per-datapoint loss of the generic-erm and
// naive-recompute mechanisms (default SquaredLoss). Other mechanisms are
// least-squares by construction and reject the option.
func WithLoss(l Loss) Option {
	return func(s *settings) error {
		if _, err := l.function(); err != nil {
			return err
		}
		s.loss = l
		s.lossSet = true
		return nil
	}
}

// WithDomainOracle supplies the §5.2 membership oracle of the
// robust-projected mechanism: points the oracle rejects are neutralized
// before touching private state. Required by robust-projected and rejected by
// every other mechanism.
func WithDomainOracle(oracle func(x []float64) bool) Option {
	return func(s *settings) error {
		if oracle == nil {
			return errors.New("privreg: WithDomainOracle requires a non-nil oracle")
		}
		s.oracle = oracle
		return nil
	}
}

// WithSpillDir switches a Pool to the disk-backed stream store rooted at the
// given directory: stream state spills to per-stream segment files when the
// resident cap (WithStoreCap) is exceeded, Pool.Flush writes incremental
// checkpoints (only segments of streams touched since the last flush), and a
// new pool opened over the same directory restores lazily from the manifest —
// boot cost is O(manifest), streams fault in on first access. The directory
// is created if missing and must not be shared between pools of different
// mechanisms (the manifest records the mechanism and a mismatch refuses to
// open). Pool-scoped: New rejects it.
func WithSpillDir(dir string) Option {
	return func(s *settings) error {
		if dir == "" {
			return errors.New("privreg: WithSpillDir requires a non-empty directory")
		}
		s.spillDir = dir
		return nil
	}
}

// WithStoreCap bounds the number of estimators a Pool keeps resident in
// memory: beyond cap, the least-recently-used streams are serialized to the
// spill directory and transparently faulted back in on their next
// Observe/Estimate — bit-identically, so a capped pool's outputs equal an
// uncapped pool's. Requires WithSpillDir (evicting without a spill target
// would discard budgeted private state); 0 restores the unbounded default.
// Pool-scoped: New rejects it.
func WithStoreCap(cap int) Option {
	return func(s *settings) error {
		if cap < 0 {
			return fmt.Errorf("privreg: WithStoreCap requires a non-negative cap, got %d", cap)
		}
		s.storeCap = cap
		return nil
	}
}

// validatePrivacy enforces the public-boundary budget contract for the
// Gaussian-noise mechanisms: ε must be a positive finite number and δ must lie
// strictly inside (0, 1).
func validatePrivacy(p Privacy) error {
	if !(p.Epsilon > 0) || math.IsInf(p.Epsilon, 0) || math.IsNaN(p.Epsilon) {
		return fmt.Errorf("privreg: Privacy.Epsilon must be a positive finite number, got %v (set it with WithPrivacy)", p.Epsilon)
	}
	if !(p.Delta > 0) || p.Delta >= 1 || math.IsNaN(p.Delta) {
		return fmt.Errorf("privreg: Privacy.Delta must lie in (0, 1) for the Gaussian-noise mechanisms, got %v (set it with WithPrivacy)", p.Delta)
	}
	return nil
}

// apply folds an option list over default settings.
func applyOptions(opts []Option) (*settings, error) {
	s := &settings{}
	for _, opt := range opts {
		if opt == nil {
			return nil, errors.New("privreg: nil Option")
		}
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}
