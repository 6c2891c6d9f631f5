package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewSource(43)
	diff := false
	a2 := NewSource(42)
	for i := 0; i < 20; i++ {
		if a2.Float64() != c.Float64() {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSplitIndependenceAndDeterminism(t *testing.T) {
	a := NewSource(7)
	b := NewSource(7)
	sa := a.Split()
	sb := b.Split()
	for i := 0; i < 50; i++ {
		if sa.Float64() != sb.Float64() {
			t.Fatal("splits of identically seeded sources differ")
		}
	}
	// Parent and child streams should not be identical.
	parent := NewSource(9)
	child := parent.Split()
	same := true
	for i := 0; i < 20; i++ {
		if parent.Float64() != child.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("split stream identical to parent stream")
	}
}

func TestNormalMoments(t *testing.T) {
	src := NewSource(1)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := src.Normal(2, 3)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("mean = %v, want 2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Fatalf("variance = %v, want 9", variance)
	}
	if src.Normal(5, 0) != 5 {
		t.Fatal("zero-sigma Normal should return the mean")
	}
}

func TestExponentialAndBernoulli(t *testing.T) {
	src := NewSource(3)
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		if src.Bernoulli(0.3) {
			count++
		}
	}
	if math.Abs(float64(count)/n-0.3) > 0.02 {
		t.Fatalf("Bernoulli(0.3) rate = %v", float64(count)/n)
	}
	if src.Bernoulli(0) || !src.Bernoulli(1) {
		t.Fatal("degenerate Bernoulli probabilities mishandled")
	}
}

func TestRademacherAndUniform(t *testing.T) {
	src := NewSource(4)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		r := src.Rademacher()
		if r != 1 && r != -1 {
			t.Fatalf("Rademacher returned %v", r)
		}
		sum += r
	}
	if math.Abs(sum/n) > 0.02 {
		t.Fatalf("Rademacher mean = %v", sum/n)
	}
}

func TestUnitSphereAndBall(t *testing.T) {
	src := NewSource(5)
	for i := 0; i < 200; i++ {
		v := src.UnitSphere(7)
		var n float64
		for _, x := range v {
			n += x * x
		}
		if math.Abs(math.Sqrt(n)-1) > 1e-9 {
			t.Fatalf("UnitSphere norm = %v", math.Sqrt(n))
		}
		b := src.UnitBall(7)
		n = 0
		for _, x := range b {
			n += x * x
		}
		if math.Sqrt(n) > 1+1e-9 {
			t.Fatalf("UnitBall norm = %v", math.Sqrt(n))
		}
	}
}

func TestSparseVector(t *testing.T) {
	src := NewSource(6)
	f := func(seed int64) bool {
		s := NewSource(seed)
		d := 1 + s.Intn(30)
		k := 1 + s.Intn(d)
		v := src.SparseVector(d, k)
		nz := 0
		var norm float64
		for _, x := range v {
			if x != 0 {
				nz++
			}
			norm += x * x
		}
		return nz == k && math.Abs(math.Sqrt(norm)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Clamping behaviour.
	v := src.SparseVector(5, 100)
	nz := 0
	for _, x := range v {
		if x != 0 {
			nz++
		}
	}
	if nz != 5 {
		t.Fatalf("sparsity not clamped to dimension: %d", nz)
	}
}

func TestVectorAndMatrixSamplers(t *testing.T) {
	src := NewSource(7)
	v := src.NormalVector(10, 0)
	for _, x := range v {
		if x != 0 {
			t.Fatal("zero-sigma NormalVector should be all zeros")
		}
	}
	p := src.Perm(10)
	seen := make(map[int]bool)
	for _, x := range p {
		seen[x] = true
	}
	if len(seen) != 10 {
		t.Fatal("Perm is not a permutation")
	}
}

func TestPanicsOnInvalidParameters(t *testing.T) {
	src := NewSource(8)
	cases := []func(){
		func() { src.Normal(0, -1) },
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			c()
		}()
	}
}

// TestFillNormalMatchesScalarLoop checks the stream-compatibility contract of
// the vectorized sampler: FillNormal must consume the generator identically to
// a scalar Normal loop, so the two are interchangeable without perturbing any
// downstream randomness.
func TestFillNormalMatchesScalarLoop(t *testing.T) {
	a := NewSource(77)
	b := NewSource(77)
	bufA := make([]float64, 257)
	a.FillNormal(bufA, 1.5, 2.25)
	for i := range bufA {
		if want := b.Normal(1.5, 2.25); bufA[i] != want {
			t.Fatalf("FillNormal[%d] = %v, scalar loop = %v", i, bufA[i], want)
		}
	}
	// After the fill both sources must be in the same state.
	if a.Float64() != b.Float64() {
		t.Fatal("FillNormal advanced the stream differently from the scalar loop")
	}
	// sigma = 0 fills with the mean and must not consume the stream.
	c := NewSource(78)
	d := NewSource(78)
	buf := make([]float64, 8)
	c.FillNormal(buf, 3, 0)
	for _, v := range buf {
		if v != 3 {
			t.Fatalf("sigma=0 fill produced %v, want 3", v)
		}
	}
	if c.Float64() != d.Float64() {
		t.Fatal("sigma=0 FillNormal consumed the stream")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative sigma should panic")
			}
		}()
		c.FillNormal(buf, 0, -1)
	}()
}
