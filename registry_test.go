package privreg

import (
	"strings"
	"testing"
)

func TestMechanismsRegistry(t *testing.T) {
	names := Mechanisms()
	want := []string{"gradient", "projected", "robust-projected", "generic-erm", "naive-recompute", "multi-outcome", "nonprivate"}
	if len(names) != len(want) {
		t.Fatalf("Mechanisms() = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Mechanisms()[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	for _, name := range names {
		info, err := Describe(name)
		if err != nil {
			t.Fatalf("Describe(%q): %v", name, err)
		}
		if info.Name != name || info.Summary == "" {
			t.Fatalf("Describe(%q) = %+v", name, info)
		}
	}
}

func TestNewResolvesAliasesCaseInsensitively(t *testing.T) {
	base := []Option{
		WithEpsilonDelta(1, 1e-6),
		WithHorizon(16),
		WithConstraint(L2Constraint(3, 1)),
		WithSeed(1),
	}
	for _, alias := range []string{"gradient", "reg1", "PRIV-INC-REG1", "  Gradient-Regression "} {
		est, err := New(alias, base...)
		if err != nil {
			t.Fatalf("New(%q): %v", alias, err)
		}
		if est.Mechanism() != "gradient" {
			t.Fatalf("New(%q).Mechanism() = %q", alias, est.Mechanism())
		}
		if est.Name() != "priv-inc-reg1" {
			t.Fatalf("New(%q).Name() = %q", alias, est.Name())
		}
	}
}

func TestNewUnknownMechanismListsValidNames(t *testing.T) {
	_, err := New("no-such-mechanism")
	if err == nil {
		t.Fatal("unknown mechanism should be rejected")
	}
	for _, name := range Mechanisms() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list valid name %q", err, name)
		}
	}
}

func TestNewValidatesPrivacyAtBoundary(t *testing.T) {
	base := func(p Privacy) []Option {
		return []Option{
			WithPrivacy(p),
			WithHorizon(16),
			WithConstraint(L2Constraint(3, 1)),
		}
	}
	bad := []Privacy{
		{},                         // zero budget
		{Epsilon: -1, Delta: 1e-6}, // negative epsilon
		{Epsilon: 0, Delta: 1e-6},  // zero epsilon
		{Epsilon: 1, Delta: 0},     // Gaussian mechanisms need delta > 0
		{Epsilon: 1, Delta: 1},     // delta must be < 1
		{Epsilon: 1, Delta: 1.5},   // out of range
	}
	for _, name := range []string{"gradient", "generic-erm", "naive-recompute"} {
		for _, p := range bad {
			if _, err := New(name, base(p)...); err == nil {
				t.Fatalf("New(%q) accepted invalid budget %+v", name, p)
			} else if !strings.Contains(err.Error(), "privreg:") {
				t.Fatalf("budget error should come from the public boundary, got %q", err)
			}
		}
	}
	// The non-private baseline ignores the budget entirely.
	if _, err := New("nonprivate", WithHorizon(16), WithConstraint(L2Constraint(3, 1))); err != nil {
		t.Fatalf("nonprivate should not require a budget: %v", err)
	}
}

func TestOptionMechanismCompatibility(t *testing.T) {
	base := []Option{
		WithEpsilonDelta(1, 1e-6),
		WithHorizon(16),
		WithConstraint(L2Constraint(3, 1)),
	}
	// WithLoss only applies to the ERM mechanisms.
	if _, err := New("gradient", append(base, WithLoss(LogisticLoss))...); err == nil {
		t.Fatal("gradient should reject WithLoss")
	}
	if _, err := New("generic-erm", append(base, WithLoss(LogisticLoss))...); err != nil {
		t.Fatalf("generic-erm should accept WithLoss: %v", err)
	}
	// WithDomainOracle only applies to robust-projected, which requires it.
	if _, err := New("generic-erm", append(base, WithDomainOracle(func([]float64) bool { return true }))...); err == nil {
		t.Fatal("generic-erm should reject WithDomainOracle")
	}
	robustBase := []Option{
		WithEpsilonDelta(1, 1e-6),
		WithHorizon(16),
		WithConstraint(L1Constraint(8, 1)),
		WithDomain(SparseDomain(8, 2)),
	}
	if _, err := New("robust-projected", robustBase...); err == nil {
		t.Fatal("robust-projected should require WithDomainOracle")
	}
	if _, err := New("robust-projected", append(robustBase, WithDomainOracle(func([]float64) bool { return true }))...); err != nil {
		t.Fatalf("robust-projected with oracle: %v", err)
	}
	// The projected mechanisms require a domain.
	if _, err := New("projected", base...); err == nil {
		t.Fatal("projected should require WithDomain")
	}
	// Constraint is always required.
	if _, err := New("gradient", WithEpsilonDelta(1, 1e-6), WithHorizon(16)); err == nil {
		t.Fatal("missing constraint should be rejected")
	}
	// Horizon is required unless unknown-horizon mode is chosen.
	if _, err := New("gradient", WithEpsilonDelta(1, 1e-6), WithConstraint(L2Constraint(3, 1))); err == nil {
		t.Fatal("missing horizon should be rejected")
	}
	if _, err := New("gradient", WithEpsilonDelta(1, 1e-6), WithConstraint(L2Constraint(3, 1)), WithUnknownHorizon()); err != nil {
		t.Fatalf("WithUnknownHorizon should stand in for a horizon: %v", err)
	}
}

func TestOptionArgumentValidation(t *testing.T) {
	if _, err := New("gradient", WithHorizon(-5)); err == nil {
		t.Fatal("negative horizon should be rejected by the option")
	}
	if _, err := New("gradient", WithConstraint(Constraint{})); err == nil {
		t.Fatal("zero constraint should be rejected by the option")
	}
	if _, err := New("projected", WithDomain(Domain{})); err == nil {
		t.Fatal("zero domain should be rejected by the option")
	}
	if _, err := New("robust-projected", WithDomainOracle(nil)); err == nil {
		t.Fatal("nil oracle should be rejected by the option")
	}
	if _, err := New("generic-erm", WithLoss(Loss(99))); err == nil {
		t.Fatal("unknown loss should be rejected by the option")
	}
	if _, err := New("gradient", nil); err == nil {
		t.Fatal("nil option should be rejected")
	}
}
