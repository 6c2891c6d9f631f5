package randx

import (
	"math/rand"
	"testing"
)

// TestCountingWrapperPreservesStream verifies a Source produces exactly the
// same primitive variates as a bare math/rand generator with the same seed.
// (The normal samplers are excluded: they run the package's own ziggurat, not
// math/rand's; their determinism is covered by the ziggurat tests.)
func TestCountingWrapperPreservesStream(t *testing.T) {
	s := NewSource(12345)
	bare := rand.New(rand.NewSource(12345))
	for i := 0; i < 2000; i++ {
		switch i % 5 {
		case 0:
			if got, want := s.rng.Int63(), bare.Int63(); got != want {
				t.Fatalf("Int63 diverged at draw %d", i)
			}
		case 1:
			if got, want := s.Float64(), bare.Float64(); got != want {
				t.Fatalf("Float64 diverged at draw %d", i)
			}
		case 2:
			if got, want := s.rng.ExpFloat64(), bare.ExpFloat64(); got != want {
				t.Fatalf("ExpFloat64 diverged at draw %d", i)
			}
		case 3:
			if got, want := s.rng.Uint64(), bare.Uint64(); got != want {
				t.Fatalf("Uint64 diverged at draw %d", i)
			}
		case 4:
			if got, want := s.Intn(97), bare.Intn(97); got != want {
				t.Fatalf("Intn diverged at draw %d", i)
			}
		}
	}
}
