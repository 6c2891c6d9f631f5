package tree

import (
	"math"
	"testing"
	"testing/quick"

	"privreg/internal/codec"
	"privreg/internal/dp"
	"privreg/internal/randx"
)

// lowNoise returns privacy parameters with an enormous epsilon so noise is
// negligible and the mechanism's bookkeeping can be checked exactly.
func lowNoise() dp.Params { return dp.Params{Epsilon: 1e9, Delta: 1e-6} }

func TestTreeConfigValidation(t *testing.T) {
	src := randx.NewSource(1)
	cases := []Config{
		{Dim: 0, MaxLen: 4, Sensitivity: 1, Privacy: lowNoise()},
		{Dim: 2, MaxLen: 0, Sensitivity: 1, Privacy: lowNoise()},
		{Dim: 2, MaxLen: 4, Sensitivity: -1, Privacy: lowNoise()},
		{Dim: 2, MaxLen: 4, Sensitivity: 1, Privacy: dp.Params{Epsilon: 0, Delta: 1e-6}},
		{Dim: 2, MaxLen: 4, Sensitivity: 1, Privacy: dp.Params{Epsilon: 1, Delta: 0}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg, src); err == nil {
			t.Fatalf("case %d: expected error for %+v", i, cfg)
		}
	}
	if _, err := New(Config{Dim: 2, MaxLen: 4, Sensitivity: 1, Privacy: lowNoise()}, nil); err == nil {
		t.Fatal("nil source should be rejected")
	}
}

func TestTreeExactSumsAtNegligibleNoise(t *testing.T) {
	src := randx.NewSource(2)
	const dim, T = 3, 37
	mech, err := treeStream(Config{Dim: dim, MaxLen: T, Sensitivity: 2, Privacy: lowNoise()}, src)
	if err != nil {
		t.Fatal(err)
	}
	exact := make([]float64, dim)
	for i := 1; i <= T; i++ {
		v := []float64{float64(i), -0.5 * float64(i), 1}
		for k := range exact {
			exact[k] += v[k]
		}
		got, err := add(mech, v)
		if err != nil {
			t.Fatal(err)
		}
		for k := range exact {
			if math.Abs(got[k]-exact[k]) > 1e-3 {
				t.Fatalf("t=%d coord %d: got %v want %v", i, k, got[k], exact[k])
			}
		}
	}
	if mech.Len() != T {
		t.Fatalf("Len = %d", mech.Len())
	}
}

// TestTreeRejectsOverflowAndDimMismatch pins the overlay's guards: a
// destination of the wrong dimension, and a stream length below zero or past
// MaxLen, panic rather than read past the level memo or key a node outside
// the tree.
func TestTreeRejectsOverflowAndDimMismatch(t *testing.T) {
	src := randx.NewSource(3)
	mech, err := New(Config{Dim: 2, MaxLen: 2, Sensitivity: 1, Privacy: lowNoise()}, src)
	if err != nil {
		t.Fatal(err)
	}
	panics := func(dst []float64, n int) (p bool) {
		defer func() { p = recover() != nil }()
		mech.AddNoiseTo(dst, n)
		return false
	}
	if !panics(make([]float64, 1), 1) {
		t.Fatal("dimension mismatch should panic")
	}
	for n := 0; n <= 2; n++ {
		if panics(make([]float64, 2), n) {
			t.Fatalf("stream length %d within MaxLen should not panic", n)
		}
	}
	if !panics(make([]float64, 2), 3) {
		t.Fatal("exceeding MaxLen should panic")
	}
	if !panics(make([]float64, 2), -1) {
		t.Fatal("a negative stream length should panic")
	}
}

func TestTreeNoiseCalibration(t *testing.T) {
	src := randx.NewSource(4)
	p := dp.Params{Epsilon: 1, Delta: 1e-6}
	mech, err := New(Config{Dim: 2, MaxLen: 1024, Sensitivity: 2, Privacy: p}, src)
	if err != nil {
		t.Fatal(err)
	}
	levels := mech.levels
	want := 2 * float64(levels) * math.Sqrt(2*math.Log(2/p.Delta)) / p.Epsilon
	if math.Abs(mech.NoiseSigma()-want) > 1e-9 {
		t.Fatalf("sigma = %v, want %v", mech.NoiseSigma(), want)
	}
	if levels != 11 { // ceil(log2 1024)+1
		t.Fatalf("levels = %d, want 11", levels)
	}
	// Error bound sanity: positive, increasing in dimension.
	small := mech.ErrorBound(0.05)
	src2 := randx.NewSource(5)
	bigger, _ := New(Config{Dim: 32, MaxLen: 1024, Sensitivity: 2, Privacy: p}, src2)
	if bigger.ErrorBound(0.05) <= small {
		t.Fatal("error bound should grow with dimension")
	}
}

func TestTreeErrorWithinBound(t *testing.T) {
	// With real noise, the observed error should stay below the 95% bound in the
	// vast majority of runs; we allow a small number of violations.
	p := dp.Params{Epsilon: 1, Delta: 1e-5}
	const trials = 20
	violations := 0
	for trial := 0; trial < trials; trial++ {
		src := randx.NewSource(int64(100 + trial))
		const dim, T = 4, 128
		mech, err := treeStream(Config{Dim: dim, MaxLen: T, Sensitivity: 2, Privacy: p}, src)
		if err != nil {
			t.Fatal(err)
		}
		bound := mech.ov.(*Tree).ErrorBound(0.05)
		exact := make([]float64, dim)
		worst := 0.0
		for i := 0; i < T; i++ {
			v := src.UnitSphere(dim)
			for k := range exact {
				exact[k] += v[k]
			}
			got, err := add(mech, v)
			if err != nil {
				t.Fatal(err)
			}
			var e float64
			for k := range exact {
				d := got[k] - exact[k]
				e += d * d
			}
			if e = math.Sqrt(e); e > worst {
				worst = e
			}
		}
		if worst > bound {
			violations++
		}
	}
	if violations > 3 {
		t.Fatalf("error exceeded the 95%% bound in %d/%d trials", violations, trials)
	}
}

func TestTreeSpaceUsage(t *testing.T) {
	// The overlay keeps no sums and no noise, and checkpoints only its
	// parameters and key: its checkpoint does not grow with T.
	src := randx.NewSource(6)
	mech, err := New(Config{Dim: 5, MaxLen: 1 << 16, Sensitivity: 1, Privacy: lowNoise()}, src)
	if err != nil {
		t.Fatal(err)
	}
	short, err := New(Config{Dim: 5, MaxLen: 4, Sensitivity: 1, Privacy: lowNoise()}, src)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := len(codec.Encode(mech)), len(codec.Encode(short)); a != b {
		t.Fatalf("checkpoint of a 2^16-long tree is %d bytes, of a 4-long one %d", a, b)
	}
}

func TestLowestSetBit(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 0, 4: 2, 6: 1, 8: 3, 12: 2, 1024: 10}
	for in, want := range cases {
		if got := lowestSetBit(in); got != want {
			t.Fatalf("lowestSetBit(%d) = %d, want %d", in, got, want)
		}
	}
	// The degenerate inputs must terminate (the old shift loop spun forever on
	// them) and map to level 0.
	if got := lowestSetBit(0); got != 0 {
		t.Fatalf("lowestSetBit(0) = %d, want 0", got)
	}
	if got := lowestSetBit(-8); got != 0 {
		t.Fatalf("lowestSetBit(-8) = %d, want 0", got)
	}
}

// TestAddToMatchesAdd checks that the allocation-free entry point and the
// allocating one produce identical streams of estimates for identical seeds.
func TestAddToMatchesAdd(t *testing.T) {
	p := dp.Params{Epsilon: 1, Delta: 1e-6}
	const dim, T = 3, 50
	a, err := treeStream(Config{Dim: dim, MaxLen: T, Sensitivity: 2, Privacy: p}, randx.NewSource(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := treeStream(Config{Dim: dim, MaxLen: T, Sensitivity: 2, Privacy: p}, randx.NewSource(42))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, dim)
	for i := 0; i < T; i++ {
		v := []float64{float64(i), 1, -0.25 * float64(i)}
		got, err := add(a, v)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AddTo(dst, v); err != nil {
			t.Fatal(err)
		}
		for k := range got {
			if got[k] != dst[k] {
				t.Fatalf("t=%d coord %d: Add=%v AddTo=%v", i, k, got[k], dst[k])
			}
		}
	}
	// SumInto must agree with Sum.
	b.SumInto(dst)
	for k, v := range sum(a, dim) {
		if v != dst[k] {
			t.Fatalf("SumInto disagrees with Sum at %d", k)
		}
	}
}

// TestTreeAddToZeroAlloc is the allocation-regression guard of the read
// path: adding the Tree Mechanism's noise at each new stream length, and
// again at the same one, must not touch the heap.
func TestTreeAddToZeroAlloc(t *testing.T) {
	src := randx.NewSource(11)
	mech, err := New(Config{
		Dim: 256, MaxLen: 1 << 20, Sensitivity: 2,
		Privacy: dp.Params{Epsilon: 1, Delta: 1e-6},
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 256)
	n := 0
	if allocs := testing.AllocsPerRun(200, func() {
		n++
		mech.AddNoiseTo(dst, n)
	}); allocs != 0 {
		t.Fatalf("Tree.AddNoiseTo at a new length allocates %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { mech.AddNoiseTo(dst, n) }); allocs != 0 {
		t.Fatalf("Tree.AddNoiseTo at the same length allocates %v times per run, want 0", allocs)
	}
}

// TestNaiveSumAddToZeroAlloc covers the baseline mechanism's fast path too.
func TestNaiveSumAddToZeroAlloc(t *testing.T) {
	src := randx.NewSource(12)
	mech, err := NewNaiveSum(64, 1<<20, 2, dp.Params{Epsilon: 1, Delta: 1e-6}, src)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, 64)
	v[1] = 0.5
	dst := make([]float64, 64)
	if allocs := testing.AllocsPerRun(200, func() {
		if err := mech.AddTo(dst, v); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("NaiveSum.AddTo allocates %v times per run, want 0", allocs)
	}
}

// TestHybridAddToMatchesAdd checks the Hybrid fast path across several epoch
// boundaries.
func TestHybridAddToMatchesAdd(t *testing.T) {
	p := dp.Params{Epsilon: 1, Delta: 1e-6}
	ha, err := NewHybrid(2, 2, p, randx.NewSource(13))
	if err != nil {
		t.Fatal(err)
	}
	hb, err := NewHybrid(2, 2, p, randx.NewSource(13))
	if err != nil {
		t.Fatal(err)
	}
	a, b := hybridStream(ha), hybridStream(hb)
	dst := make([]float64, 2)
	for i := 1; i <= 70; i++ {
		v := []float64{1, float64(i % 5)}
		got, err := add(a, v)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AddTo(dst, v); err != nil {
			t.Fatal(err)
		}
		if got[0] != dst[0] || got[1] != dst[1] {
			t.Fatalf("t=%d: Add=%v AddTo=%v", i, got, dst)
		}
	}
}

// TestSharedSourceMechanismsGetIndependentNoise guards the key-derivation
// contract: two mechanisms constructed from the *same* Source must receive
// distinct noise keys (the derivation consumes a parent draw, like Split), so
// their releases never share noise — subtracting two releases must not cancel
// the perturbation.
func TestSharedSourceMechanismsGetIndependentNoise(t *testing.T) {
	p := dp.Params{Epsilon: 1, Delta: 1e-6}
	src := randx.NewSource(7)
	ts, err := treeStream(Config{Dim: 1, MaxLen: 8, Sensitivity: 2, Privacy: p}, src)
	if err != nil {
		t.Fatal(err)
	}
	tr := ts.ov.(*Tree)
	nv, err := NewNaiveSum(1, 8, 2, p, src)
	if err != nil {
		t.Fatal(err)
	}
	if tr.noiseKey == nv.noiseKey {
		t.Fatal("mechanisms built from one source share a noise key")
	}
	a, err := add(ts, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := add(nv, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	// Zero inputs make the releases pure noise; normalized by each sigma they
	// must differ (equality would mean a shared underlying draw).
	if a[0]/tr.NoiseSigma() == b[0]/nv.sigma {
		t.Fatal("releases of shared-source mechanisms carry identical noise")
	}
}

func TestNumLevels(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 3, 4: 3, 5: 4, 8: 4, 9: 5, 1024: 11}
	for in, want := range cases {
		if got := numLevels(in); got != want {
			t.Fatalf("numLevels(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestHybridExactSumsAtNegligibleNoise(t *testing.T) {
	src := randx.NewSource(7)
	ov, err := NewHybrid(2, 2, lowNoise(), src)
	if err != nil {
		t.Fatal(err)
	}
	mech := hybridStream(ov)
	exact := []float64{0, 0}
	const T = 100 // crosses several epoch boundaries
	for i := 1; i <= T; i++ {
		v := []float64{1, float64(i % 3)}
		exact[0] += v[0]
		exact[1] += v[1]
		got, err := add(mech, v)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[0]-exact[0]) > 1e-2 || math.Abs(got[1]-exact[1]) > 1e-2 {
			t.Fatalf("t=%d: got %v want %v", i, got, exact)
		}
	}
	if mech.Len() != T {
		t.Fatalf("Len = %d", mech.Len())
	}
}

func TestHybridValidation(t *testing.T) {
	src := randx.NewSource(8)
	if _, err := NewHybrid(0, 1, lowNoise(), src); err == nil {
		t.Fatal("zero dimension should be rejected")
	}
	if _, err := NewHybrid(2, 1, dp.Params{Epsilon: 1, Delta: 0}, src); err == nil {
		t.Fatal("delta=0 should be rejected")
	}
	if _, err := NewHybrid(2, 1, lowNoise(), nil); err == nil {
		t.Fatal("nil source should be rejected")
	}
	mech, _ := NewHybrid(2, 1, lowNoise(), src)
	panics := func(dst []float64, n int) (p bool) {
		defer func() { p = recover() != nil }()
		mech.AddNoiseTo(dst, n)
		return false
	}
	if !panics(make([]float64, 1), 1) {
		t.Fatal("dimension mismatch should panic")
	}
	if !panics(make([]float64, 2), -1) {
		t.Fatal("a negative stream length should panic")
	}
}

func TestNaiveSumExactAtNegligibleNoise(t *testing.T) {
	src := randx.NewSource(9)
	mech, err := NewNaiveSum(2, 16, 2, lowNoise(), src)
	if err != nil {
		t.Fatal(err)
	}
	exact := []float64{0, 0}
	for i := 0; i < 16; i++ {
		v := []float64{1, -1}
		exact[0]++
		exact[1]--
		got, err := add(mech, v)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[0]-exact[0]) > 1e-2 || math.Abs(got[1]-exact[1]) > 1e-2 {
			t.Fatalf("naive sum wrong at %d: %v vs %v", i, got, exact)
		}
	}
}

func TestNaiveSumNoisierThanTreeForLongStreams(t *testing.T) {
	// The defining comparison: for the same total budget the per-release noise of
	// the naive mechanism must exceed the tree mechanism's per-node noise scaled
	// by the number of summed nodes, once T is large.
	p := dp.Params{Epsilon: 1, Delta: 1e-6}
	const T = 4096
	src := randx.NewSource(10)
	tr, err := New(Config{Dim: 1, MaxLen: T, Sensitivity: 2, Privacy: p}, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	nv, err := NewNaiveSum(1, T, 2, p, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	// Worst-case per-release error scale: tree ≈ σ_tree·√levels, naive ≈ σ_naive.
	treeScale := tr.NoiseSigma() * math.Sqrt(float64(tr.levels))
	if nv.sigma <= treeScale {
		t.Fatalf("naive per-release noise %v should exceed tree error scale %v at T=%d",
			nv.sigma, treeScale, T)
	}
}

// Property: with negligible noise the tree mechanism reproduces prefix sums of
// arbitrary random streams.
func TestTreePrefixSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		src := randx.NewSource(seed)
		dim := 1 + src.Intn(4)
		T := 1 + src.Intn(40)
		mech, err := treeStream(Config{Dim: dim, MaxLen: T, Sensitivity: 1, Privacy: lowNoise()}, src.Split())
		if err != nil {
			return false
		}
		exact := make([]float64, dim)
		for i := 0; i < T; i++ {
			v := src.NormalVector(dim, 1)
			for k := range exact {
				exact[k] += v[k]
			}
			got, err := add(mech, v)
			if err != nil {
				return false
			}
			for k := range exact {
				if math.Abs(got[k]-exact[k]) > 1e-2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
