package privreg

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"privreg/internal/core"
	"privreg/internal/erm"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// MechanismInfo describes one entry of the mechanism registry.
type MechanismInfo struct {
	// Name is the canonical registry name, the value New and NewPool accept.
	Name string
	// Aliases are alternative names New resolves to the same mechanism.
	Aliases []string
	// Summary is a one-line description for CLI help and config tooling.
	Summary string
	// Private reports whether the mechanism consumes a privacy budget.
	Private bool
	// NeedsDomain reports whether WithDomain is required.
	NeedsDomain bool
	// NeedsOracle reports whether WithDomainOracle is required.
	NeedsOracle bool
	// AcceptsLoss reports whether WithLoss is honored.
	AcceptsLoss bool
	// MultiOutcome reports whether WithOutcomes(k > 1) is honored: the
	// mechanism serves k regressions over one shared feature stream.
	MultiOutcome bool
}

// mechanism is a registry entry: public metadata plus the construction hook.
type mechanism struct {
	info  MechanismInfo
	build func(s *settings) (core.Estimator, error)
}

// registry holds every mechanism in its canonical order (the order Mechanisms
// reports and CLIs list).
var registry = []*mechanism{
	{
		info: MechanismInfo{
			Name:    "gradient",
			Aliases: []string{"reg1", "priv-inc-reg1", "gradient-regression"},
			Summary: "Algorithm PRIVINCREG1: Tree-Mechanism private gradient, excess risk ≈ √d",
			Private: true,
		},
		build: func(s *settings) (core.Estimator, error) {
			if err := rejectLossAndOracle(s, "gradient"); err != nil {
				return nil, err
			}
			cfg := s.cfg
			return core.NewGradientRegression(cfg.Constraint.set, cfg.Privacy.params(), cfg.horizonOrDefault(), randx.NewSource(cfg.Seed), core.RegressionOptions{
				MaxIterations: cfg.MaxIterations,
				WarmStart:     cfg.WarmStart,
				UseHybridTree: cfg.UnknownHorizon,
			})
		},
	},
	{
		info: MechanismInfo{
			Name:        "projected",
			Aliases:     []string{"reg2", "priv-inc-reg2", "projected-regression"},
			Summary:     "Algorithm PRIVINCREG2: optimize in a width-sized random sketch, excess risk ≈ T^{1/3}·W^{2/3}",
			Private:     true,
			NeedsDomain: true,
		},
		build: func(s *settings) (core.Estimator, error) {
			if err := rejectLossAndOracle(s, "projected"); err != nil {
				return nil, err
			}
			cfg := s.cfg
			return core.NewProjectedRegression(cfg.Domain.set, cfg.Constraint.set, cfg.Privacy.params(), cfg.horizonOrDefault(), randx.NewSource(cfg.Seed), projectedOptions(cfg))
		},
	},
	{
		info: MechanismInfo{
			Name:        "robust-projected",
			Aliases:     []string{"robust", "priv-inc-reg2-robust"},
			Summary:     "§5.2 robust PRIVINCREG2: an oracle screens covariates, rejected points are neutralized",
			Private:     true,
			NeedsDomain: true,
			NeedsOracle: true,
		},
		build: func(s *settings) (core.Estimator, error) {
			if s.lossSet {
				return nil, errors.New(`privreg: mechanism "robust-projected" is least-squares by construction and does not accept WithLoss`)
			}
			if s.oracle == nil {
				return nil, errors.New(`privreg: mechanism "robust-projected" requires WithDomainOracle`)
			}
			cfg, oracle := s.cfg, s.oracle
			return core.NewRobustProjectedRegression(cfg.Domain.set, cfg.Constraint.set,
				func(x vec.Vector) bool { return oracle([]float64(x)) },
				cfg.Privacy.params(), cfg.horizonOrDefault(), randx.NewSource(cfg.Seed), projectedOptions(cfg))
		},
	},
	{
		info: MechanismInfo{
			Name:        "generic-erm",
			Aliases:     []string{"erm", "priv-inc-erm"},
			Summary:     "Mechanism PRIVINCERM: recompute a private batch solve every τ steps, any convex loss",
			Private:     true,
			AcceptsLoss: true,
		},
		build: func(s *settings) (core.Estimator, error) {
			if s.oracle != nil {
				return nil, errors.New(`privreg: mechanism "generic-erm" does not accept WithDomainOracle`)
			}
			f, err := s.loss.function()
			if err != nil {
				return nil, err
			}
			cfg := s.cfg
			return core.NewGenericERM(f, cfg.Constraint.set, cfg.Privacy.params(), cfg.horizonOrDefault(), randx.NewSource(cfg.Seed), core.GenericOptions{
				Batch:      erm.PrivateBatchOptions{Iterations: cfg.MaxIterations},
				HistoryCap: cfg.HistoryCap,
			})
		},
	},
	{
		info: MechanismInfo{
			Name:        "naive-recompute",
			Aliases:     []string{"naive"},
			Summary:     "baseline: re-solve privately at every step, budget split by advanced composition (≈ √T worse)",
			Private:     true,
			AcceptsLoss: true,
		},
		build: func(s *settings) (core.Estimator, error) {
			if s.oracle != nil {
				return nil, errors.New(`privreg: mechanism "naive-recompute" does not accept WithDomainOracle`)
			}
			f, err := s.loss.function()
			if err != nil {
				return nil, err
			}
			cfg := s.cfg
			return core.NewNaiveRecompute(f, cfg.Constraint.set, cfg.Privacy.params(), cfg.horizonOrDefault(), randx.NewSource(cfg.Seed), core.GenericOptions{
				Batch:      erm.PrivateBatchOptions{Iterations: cfg.MaxIterations},
				HistoryCap: cfg.HistoryCap,
			})
		},
	},
	{
		info: MechanismInfo{
			Name:         "multi-outcome",
			Aliases:      []string{"primo", "multi"},
			Summary:      "PRIMO-style engine: one shared Gram fold serves k least-squares regressions under a split budget",
			Private:      true,
			MultiOutcome: true,
		},
		build: func(s *settings) (core.Estimator, error) {
			if err := rejectLossAndOracle(s, "multi-outcome"); err != nil {
				return nil, err
			}
			cfg := s.cfg
			return core.NewMultiOutcome(cfg.Constraint.set, cfg.outcomes(), cfg.Privacy.params(), cfg.horizonOrDefault(), randx.NewSource(cfg.Seed), core.GenericOptions{
				Batch: erm.PrivateBatchOptions{Iterations: cfg.MaxIterations},
			})
		},
	},
	{
		info: MechanismInfo{
			Name:    "nonprivate",
			Aliases: []string{"exact", "baseline", "exact-incremental"},
			Summary: "exact non-private incremental least squares: the utility ceiling",
			Private: false,
		},
		build: func(s *settings) (core.Estimator, error) {
			if err := rejectLossAndOracle(s, "nonprivate"); err != nil {
				return nil, err
			}
			return core.NewNonPrivateIncremental(s.cfg.Constraint.set, s.cfg.MaxIterations), nil
		},
	},
}

func rejectLossAndOracle(s *settings, name string) error {
	if s.lossSet {
		return fmt.Errorf("privreg: mechanism %q is least-squares by construction and does not accept WithLoss", name)
	}
	if s.oracle != nil {
		return fmt.Errorf("privreg: mechanism %q does not accept WithDomainOracle", name)
	}
	return nil
}

// projectedOptions is the PRIVINCREG2 option plumbing the projected and
// robust-projected mechanisms share: Gordon's rule sizes the sketch and the
// paper's dense Gaussian projection implements it.
func projectedOptions(cfg config) core.ProjectedOptions {
	return core.ProjectedOptions{
		RegressionOptions: core.RegressionOptions{
			MaxIterations: cfg.MaxIterations,
			WarmStart:     cfg.WarmStart,
			UseHybridTree: cfg.UnknownHorizon,
		},
	}
}

// lookupMechanism resolves a canonical name or alias, case-insensitively.
func lookupMechanism(name string) (*mechanism, error) {
	needle := strings.ToLower(strings.TrimSpace(name))
	for _, m := range registry {
		if m.info.Name == needle {
			return m, nil
		}
		for _, a := range m.info.Aliases {
			if a == needle {
				return m, nil
			}
		}
	}
	return nil, fmt.Errorf("privreg: unknown mechanism %q (valid names: %s)", name, strings.Join(Mechanisms(), ", "))
}

// Mechanisms returns the canonical names of every registered mechanism, in
// registry order. These are the values New and NewPool accept (aliases listed
// by Describe are accepted too).
func Mechanisms() []string {
	out := make([]string, len(registry))
	for i, m := range registry {
		out[i] = m.info.Name
	}
	return out
}

// Describe returns the registry metadata for a mechanism name or alias.
func Describe(name string) (MechanismInfo, error) {
	m, err := lookupMechanism(name)
	if err != nil {
		return MechanismInfo{}, err
	}
	info := m.info
	info.Aliases = append([]string(nil), m.info.Aliases...)
	sort.Strings(info.Aliases)
	return info, nil
}

// New constructs an estimator by registry name (or alias), configured with
// functional options. It is the construction path deployments should use —
// mechanism selection becomes a config-file string, and every parameter is
// validated at this boundary with a clear error:
//
//	est, err := privreg.New("gradient",
//	    privreg.WithEpsilonDelta(1, 1e-6),
//	    privreg.WithHorizon(100000),
//	    privreg.WithConstraint(privreg.L2Constraint(16, 1)),
//	    privreg.WithSeed(42),
//	)
//
// See Mechanisms for the valid names and Describe for per-mechanism details.
func New(name string, opts ...Option) (Estimator, error) {
	m, err := lookupMechanism(name)
	if err != nil {
		return nil, err
	}
	s, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if s.spillDir != "" || s.storeCap != 0 {
		return nil, errors.New("privreg: WithSpillDir/WithStoreCap configure a Pool's stream store and do not apply to a single estimator; use NewPool")
	}
	return buildEstimator(m, s)
}

// buildEstimator runs the shared validation pipeline and wraps the core
// estimator in the public adapter. It is the single construction funnel used
// by New and Pool.
func buildEstimator(m *mechanism, s *settings) (Estimator, error) {
	if m.info.Private {
		if err := validatePrivacy(s.cfg.Privacy); err != nil {
			return nil, err
		}
	}
	if s.cfg.Outcomes > 1 && !m.info.MultiOutcome {
		return nil, fmt.Errorf("privreg: mechanism %q serves a single outcome; WithOutcomes(%d) requires the multi-outcome mechanism", m.info.Name, s.cfg.Outcomes)
	}
	if err := s.cfg.validate(m.info.NeedsDomain); err != nil {
		return nil, err
	}
	inner, err := m.build(s)
	if err != nil {
		return nil, err
	}
	return &estimatorAdapter{inner: inner, mechanism: m.info.Name, dim: s.cfg.Constraint.Dim(), outcomes: s.cfg.outcomes()}, nil
}
