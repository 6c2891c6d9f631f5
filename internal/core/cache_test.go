package core

import (
	"testing"

	"privreg/internal/codec"
	"privreg/internal/constraint"
	"privreg/internal/randx"
)

// estimateCached drives an estimator and verifies the estimate-memoization
// contract: repeated Estimate calls with no new data return bit-identical
// vectors with distinct backing arrays (callers own the result), a new
// observation invalidates the memo, and the post-observation estimate matches
// a twin estimator that never made the intermediate calls — i.e. caching is
// invisible in the released sequence.
func estimateCached(t *testing.T, build func() Estimator) {
	t.Helper()
	gen, _ := linearStream(4, 0.05, 0, 99)
	a := build()
	b := build()
	for i := 0; i < 12; i++ {
		p := gen.Next()
		if err := observe(a, p); err != nil {
			t.Fatal(err)
		}
		if err := observe(b, p); err != nil {
			t.Fatal(err)
		}
	}
	first, err := a.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	second, err := a.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] == &second[0] {
		t.Fatal("repeat Estimate returned the same backing array; callers own the result")
	}
	for k := range first {
		if first[k] != second[k] {
			t.Fatalf("repeat Estimate differs at %d: %v != %v", k, first[k], second[k])
		}
	}
	// Fresh data invalidates; both estimators must agree afterwards even
	// though only a made the intermediate (cached) calls.
	p := gen.Next()
	if err := observe(a, p); err != nil {
		t.Fatal(err)
	}
	if err := observe(b, p); err != nil {
		t.Fatal(err)
	}
	ea, err := a.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	for k := range ea {
		if ea[k] != eb[k] {
			t.Fatalf("post-invalidation estimate differs at %d from the call-free twin: %v != %v", k, ea[k], eb[k])
		}
	}
}

// TestEstimateMemoSurvivesRestore pins the memo-in-checkpoint requirement:
// with warm starts enabled, an estimator that computed an estimate, was
// checkpointed, and is asked again at the same timestep serves the memo —
// and so must a twin restored from the checkpoint. (Without the serialized
// memo the twin re-runs the optimizer from the warm-start iterate and
// produces a different — equally valid but not bit-identical — vector.)
func TestEstimateMemoSurvivesRestore(t *testing.T) {
	builders := map[string]func() Estimator{
		"gradient": func() Estimator {
			g, err := NewGradientRegression(constraint.NewL2Ball(3, 1), privacy(), 64, randx.NewSource(3),
				RegressionOptions{WarmStart: true, MaxIterations: 25})
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"projected": func() Estimator {
			r, err := NewProjectedRegression(constraint.NewL2Ball(3, 1), constraint.NewL2Ball(3, 1), privacy(), 64,
				randx.NewSource(3), ProjectedOptions{RegressionOptions: RegressionOptions{WarmStart: true, MaxIterations: 25}})
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			gen, _ := linearStream(3, 0.05, 0, 11)
			orig := build()
			for i := 0; i < 12; i++ {
				if err := observe(orig, gen.Next()); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := orig.Estimate(); err != nil {
				t.Fatal(err)
			}
			blob := codec.Encode(orig)
			restored := build()
			if err := restored.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			a, err := orig.Estimate() // memo hit
			if err != nil {
				t.Fatal(err)
			}
			b, err := restored.Estimate() // must hit the restored memo, not re-solve
			if err != nil {
				t.Fatal(err)
			}
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("same-timestep estimate diverged across restore at %d: %v != %v", k, a[k], b[k])
				}
			}
		})
	}
}

func TestEstimateCacheGradient(t *testing.T) {
	estimateCached(t, func() Estimator {
		c := constraint.NewL2Ball(4, 1)
		g, err := NewGradientRegression(c, privacy(), 64, randx.NewSource(7), RegressionOptions{MaxIterations: 30})
		if err != nil {
			t.Fatal(err)
		}
		return g
	})
}

func TestEstimateCacheProjected(t *testing.T) {
	estimateCached(t, func() Estimator {
		x := constraint.NewL2Ball(4, 1)
		c := constraint.NewL2Ball(4, 1)
		r, err := NewProjectedRegression(x, c, privacy(), 64, randx.NewSource(7), ProjectedOptions{
			RegressionOptions: RegressionOptions{MaxIterations: 30},
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	})
}

func TestEstimateCacheNonPrivate(t *testing.T) {
	estimateCached(t, func() Estimator {
		return NewNonPrivateIncremental(constraint.NewL2Ball(4, 1), 0)
	})
}

// TestEstimateCacheSurvivesWarmStart is the interaction check: with warm
// starts on, the cached return must not advance the warm-start iterate (a
// cache hit is a read, not a solve), so a run with redundant Estimate calls
// stays bit-identical to one without.
func TestEstimateCacheSurvivesWarmStart(t *testing.T) {
	build := func() Estimator {
		c := constraint.NewL2Ball(3, 1)
		g, err := NewGradientRegression(c, privacy(), 64, randx.NewSource(3), RegressionOptions{WarmStart: true, MaxIterations: 25})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	gen, _ := linearStream(3, 0.05, 0, 5)
	chatty := build() // calls Estimate redundantly (twice) at every step
	quiet := build()  // calls Estimate once per step
	for i := 0; i < 20; i++ {
		p := gen.Next()
		if err := observe(chatty, p); err != nil {
			t.Fatal(err)
		}
		if err := observe(quiet, p); err != nil {
			t.Fatal(err)
		}
		if _, err := quiet.Estimate(); err != nil {
			t.Fatal(err)
		}
		if _, err := chatty.Estimate(); err != nil {
			t.Fatal(err)
		}
		if _, err := chatty.Estimate(); err != nil { // redundant: served from cache
			t.Fatal(err)
		}
	}
	a, err := chatty.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := quiet.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("redundant cached estimates changed the sequence at %d: %v != %v", k, a[k], b[k])
		}
	}
}
