package randx

import (
	"math"
	"sort"
	"testing"
)

// TestZigguratMoments checks the first three standardized moments of the
// ziggurat sampler at n = 1e6 against N(0, 1). The seed is fixed, so the
// tolerances can sit a few standard errors out without flakiness (standard
// errors at this n: mean 1e-3, variance 1.4e-3, skewness 2.4e-3).
func TestZigguratMoments(t *testing.T) {
	src := NewSource(314159)
	const n = 1_000_000
	var sum, sumSq, sumCu float64
	for i := 0; i < n; i++ {
		x := src.Normal(0, 1)
		sum += x
		sumSq += x * x
		sumCu += x * x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	sd := math.Sqrt(variance)
	skew := (sumCu/n - 3*mean*variance - mean*mean*mean) / (sd * sd * sd)
	if math.Abs(mean) > 0.01 {
		t.Fatalf("mean = %v, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.01 {
		t.Fatalf("variance = %v, want ≈ 1", variance)
	}
	if math.Abs(skew) > 0.02 {
		t.Fatalf("skewness = %v, want ≈ 0", skew)
	}
}

// stdNormalCDF is Φ, the N(0,1) distribution function.
func stdNormalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// ksStatistic returns the two-sided Kolmogorov–Smirnov distance between the
// sample and N(0, 1).
func ksStatistic(sample []float64) float64 {
	sort.Float64s(sample)
	n := float64(len(sample))
	var d float64
	for i, x := range sample {
		f := stdNormalCDF(x)
		if hi := float64(i+1)/n - f; hi > d {
			d = hi
		}
		if lo := f - float64(i)/n; lo > d {
			d = lo
		}
	}
	return d
}

// TestZigguratKolmogorovSmirnov is the distributional smoke test: at
// n = 200000 the critical KS distance at significance 0.001 is
// 1.949/√n ≈ 0.0044; the fixed seed keeps the check deterministic, and the
// looser 0.01 bound still catches any structural sampler defect (a wrong
// wedge or tail branch shifts D by far more).
func TestZigguratKolmogorovSmirnov(t *testing.T) {
	const n = 200_000
	src := NewSource(2718)
	sample := make([]float64, n)
	src.FillNormal(sample, 0, 1)
	if d := ksStatistic(sample); d > 0.01 {
		t.Fatalf("KS distance vs N(0,1) = %v, want < 0.01", d)
	}
	// The counter-keyed stream runs the same ziggurat over a different bit
	// source; give it its own KS pass.
	FillNormalAt(99, 123, sample, 1)
	if d := ksStatistic(sample); d > 0.01 {
		t.Fatalf("counter-keyed KS distance vs N(0,1) = %v, want < 0.01", d)
	}
}

// TestZigguratTailCoverage verifies the tail branch is actually exercised and
// produces values beyond the ziggurat cutoff R with roughly the right
// frequency (P(|X| > 3.4426…) ≈ 5.75e-4).
func TestZigguratTailCoverage(t *testing.T) {
	src := NewSource(7)
	const n = 1_000_000
	tail := 0
	for i := 0; i < n; i++ {
		if math.Abs(src.Normal(0, 1)) > zigR {
			tail++
		}
	}
	want := 2 * (1 - stdNormalCDF(zigR)) * n
	if float64(tail) < want/2 || float64(tail) > want*2 {
		t.Fatalf("tail samples = %d, want ≈ %.0f", tail, want)
	}
}

// TestFillNormalAtGolden pins the exact outputs of the counter-keyed sampler
// for a fixed (key, node): the noise substrate of the lazy Tree Mechanism
// must be reproducible across platforms, architectures, and Go versions — a
// checkpoint restored elsewhere re-materializes exactly these values. If this
// test ever fails, the checkpoint format version must be bumped.
func TestFillNormalAtGolden(t *testing.T) {
	golden := []float64{
		0.6446534253480593,
		1.5472842794741677,
		-1.7275850415356633,
		-0.7430505563207951,
		-0.1871984538503954,
		1.4966165737345989,
		-0.912768511453333,
		0.807614655988581,
	}
	buf := make([]float64, len(golden))
	FillNormalAt(42, 7, buf, 1)
	for i, want := range golden {
		if buf[i] != want {
			t.Fatalf("FillNormalAt(42, 7)[%d] = %v, want %v", i, buf[i], want)
		}
	}
	if got, want := SubKey(42, 7), int64(1506751773655410801); got != want {
		t.Fatalf("SubKey(42, 7) = %d, want %d", got, want)
	}
}

// TestFillNormalAtPure verifies the defining property of counter-keyed noise:
// the output is a pure function of (key, node, len, sigma) — repeated and
// interleaved materializations agree bit-for-bit, and distinct keys or nodes
// give distinct streams.
func TestFillNormalAtPure(t *testing.T) {
	a := make([]float64, 64)
	b := make([]float64, 64)
	FillNormalAt(5, 11, a, 2.5)
	FillNormalAt(5, 12, b, 2.5) // interleave another node
	c := make([]float64, 64)
	FillNormalAt(5, 11, c, 2.5)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("re-materialization diverged at %d: %v != %v", i, a[i], c[i])
		}
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams of distinct nodes share %d/64 values", same)
	}
	// sigma scales linearly: FillNormalAt(k, n, ·, 2σ) = 2·FillNormalAt(k, n, ·, σ).
	FillNormalAt(5, 11, b, 5.0)
	for i := range a {
		if b[i] != 2*a[i] {
			t.Fatalf("sigma scaling broken at %d: %v != 2·%v", i, b[i], a[i])
		}
	}
	// sigma = 0 writes zeros.
	FillNormalAt(5, 11, b, 0)
	for i := range b {
		if b[i] != 0 {
			t.Fatalf("sigma=0 produced %v", b[i])
		}
	}
}

// TestSubKeyDistinct checks the child-key derivation spreads indices and
// differs from the parent key (collisions among small indices would correlate
// Hybrid epoch trees).
func TestSubKeyDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := uint64(0); i < 1000; i++ {
		k := SubKey(42, i)
		if k == 42 {
			t.Fatalf("SubKey(42, %d) equals the parent key", i)
		}
		if seen[k] {
			t.Fatalf("SubKey collision at index %d", i)
		}
		seen[k] = true
	}
	if SubKey(1, 3) == SubKey(2, 3) {
		t.Fatal("distinct parents produced the same child key")
	}
}

// TestNormalSamplersShareStream verifies all Source normal samplers run the
// same ziggurat over the same stream: a NormalVector equals an element-wise
// FillNormal from an identically positioned source.
func TestNormalSamplersShareStream(t *testing.T) {
	a := NewSource(1234)
	b := NewSource(1234)
	va := a.NormalVector(33, 2)
	vb := make([]float64, 33)
	b.FillNormal(vb, 0, 2)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("NormalVector[%d] = %v, FillNormal = %v", i, va[i], vb[i])
		}
	}
	if a.Float64() != b.Float64() {
		t.Fatal("samplers advanced the stream differently")
	}
}

// TestGetBufPutBuf covers the pooled scratch buffers used by lazy noise
// materialization.
func TestGetBufPutBuf(t *testing.T) {
	b := GetBuf(16)
	if len(*b) != 16 {
		t.Fatalf("GetBuf(16) length = %d", len(*b))
	}
	for i := range *b {
		if (*b)[i] != 0 {
			t.Fatal("GetBuf returned a non-zeroed buffer")
		}
		(*b)[i] = 1
	}
	PutBuf(b)
	c := GetBuf(8)
	for i := range *c {
		if (*c)[i] != 0 {
			t.Fatal("recycled buffer not re-zeroed")
		}
	}
	PutBuf(c)
}
