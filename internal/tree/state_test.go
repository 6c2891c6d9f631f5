package tree

import (
	"testing"

	"privreg/internal/codec"
	"privreg/internal/dp"
	"privreg/internal/randx"
)

func testPrivacy() dp.Params { return dp.Params{Epsilon: 1, Delta: 1e-6} }

func element(i, dim int) []float64 {
	v := make([]float64, dim)
	v[i%dim] = 0.5
	v[(i+1)%dim] = -0.25
	return v
}

// releaser is the ingest and release surface every continual-sum mechanism
// of the package has; NaiveSum has it without Mechanism's checkpoint methods.
type releaser interface {
	AddTo(dst, v []float64) error
	SumInto(dst []float64)
}

// add feeds v to m and returns the released running sum: AddTo without a
// destination, then SumInto.
func add(m releaser, v []float64) ([]float64, error) {
	if err := m.AddTo(nil, v); err != nil {
		return nil, err
	}
	return sum(m, len(v)), nil
}

// sum returns m's current released running sum as a new dim-vector.
func sum(m releaser, dim int) []float64 {
	out := make([]float64, dim)
	m.SumInto(out)
	return out
}

// buildMechanism constructs one of the three mechanisms with a deterministic
// source derived from seed.
func buildMechanism(t *testing.T, kind string, dim, maxLen int, seed int64) releaser {
	t.Helper()
	src := randx.NewSource(seed)
	switch kind {
	case "tree":
		m, err := New(Config{Dim: dim, MaxLen: maxLen, Sensitivity: 2, Privacy: testPrivacy()}, src)
		if err != nil {
			t.Fatal(err)
		}
		return m
	case "hybrid":
		m, err := NewHybrid(dim, 2, testPrivacy(), src)
		if err != nil {
			t.Fatal(err)
		}
		return m
	case "naive-sum":
		m, err := NewNaiveSum(dim, maxLen, 2, testPrivacy(), src)
		if err != nil {
			t.Fatal(err)
		}
		return m
	default:
		t.Fatalf("unknown kind %q", kind)
		return nil
	}
}

// TestCheckpointRestoreBitIdentical checkpoints each mechanism mid-stream,
// restores into a freshly constructed instance, and verifies the continuation
// is bit-identical to the uninterrupted run — including the noise drawn after
// the restore point.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	const dim, maxLen, ckptAt = 3, 64, 21
	for _, kind := range []string{"tree", "hybrid"} {
		t.Run(kind, func(t *testing.T) {
			full := buildMechanism(t, kind, dim, maxLen, 42)
			half := buildMechanism(t, kind, dim, maxLen, 42).(Mechanism)
			for i := 0; i < ckptAt; i++ {
				v := element(i, dim)
				if _, err := add(full, v); err != nil {
					t.Fatal(err)
				}
				if _, err := add(half, v); err != nil {
					t.Fatal(err)
				}
			}
			blob := codec.Encode(half)
			// Restore into an instance built with a different seed: every bit of
			// relevant randomness state must come from the checkpoint.
			restored := buildMechanism(t, kind, dim, maxLen, 999).(Mechanism)
			if err := restored.UnmarshalState(blob); err != nil {
				t.Fatal(err)
			}
			if restored.Len() != ckptAt {
				t.Fatalf("restored Len = %d, want %d", restored.Len(), ckptAt)
			}
			for i := ckptAt; i < maxLen; i++ {
				v := element(i, dim)
				a, err := add(full, v)
				if err != nil {
					t.Fatal(err)
				}
				b, err := add(restored, v)
				if err != nil {
					t.Fatal(err)
				}
				for k := range a {
					if a[k] != b[k] {
						t.Fatalf("step %d coordinate %d: uninterrupted %v != restored %v", i, k, a[k], b[k])
					}
				}
			}
		})
	}
}

// TestCheckpointStructuralMismatchRejected verifies that restoring into a
// mechanism with different structural parameters fails loudly.
func TestCheckpointStructuralMismatchRejected(t *testing.T) {
	build := func(kind string, dim, maxLen int) Mechanism {
		return buildMechanism(t, kind, dim, maxLen, 1).(Mechanism)
	}
	blob := codec.Encode(build("tree", 3, 64))
	if err := build("tree", 4, 64).UnmarshalState(blob); err == nil {
		t.Fatal("dimension mismatch should be rejected")
	}
	if err := build("tree", 3, 32).UnmarshalState(blob); err == nil {
		t.Fatal("horizon mismatch should be rejected")
	}
	if err := build("hybrid", 3, 64).UnmarshalState(blob); err == nil {
		t.Fatal("kind mismatch should be rejected")
	}
	if err := build("tree", 3, 64).UnmarshalState(blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated blob should be rejected")
	}
}

// TestLazySumMatchesEager verifies the deferred running-sum aggregation (AddTo
// with nil destination, then SumInto) returns exactly the estimates the eager path
// (AddTo with a destination) produces.
func TestLazySumMatchesEager(t *testing.T) {
	const dim, maxLen = 4, 40
	for _, kind := range []string{"tree", "hybrid"} {
		t.Run(kind, func(t *testing.T) {
			eager := buildMechanism(t, kind, dim, maxLen, 7)
			lazy := buildMechanism(t, kind, dim, maxLen, 7)
			dst := make([]float64, dim)
			for i := 0; i < maxLen; i++ {
				v := element(i, dim)
				if err := eager.AddTo(dst, v); err != nil {
					t.Fatal(err)
				}
				if err := lazy.AddTo(nil, v); err != nil {
					t.Fatal(err)
				}
				// Query the lazy side only occasionally, as the batch path does.
				if i%7 == 0 || i == maxLen-1 {
					got := sum(lazy, dim)
					want := sum(eager, dim)
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("step %d coordinate %d: lazy %v != eager %v", i, k, got[k], want[k])
						}
					}
				}
			}
		})
	}
}
