package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"privreg/internal/codec"
	"privreg/internal/constraint"
	"privreg/internal/dp"
	"privreg/internal/loss"
	"privreg/internal/randx"
	"privreg/internal/tree"
	"privreg/internal/vec"
)

// svecOuter writes svec(x xᵀ) into dst (length svecLen(len(x))): the upper
// triangle of x xᵀ packed row-major as in vec.SymMatrix, with diagonal entries
// x_i² and off-diagonal entries √2·x_i x_j. It is the second-moment stream
// element the overlay's noise scale is calibrated for.
func svecOuter(dst []float64, x vec.Vector) {
	d := len(x)
	off := 0
	for i, xi := range x {
		row := dst[off : off+d-i]
		off += d - i
		row[0] = xi * xi
		for k, xj := range x[i+1:] {
			row[k+1] = math.Sqrt2 * xi * xj
		}
	}
}

// TestSvecIsometry pins the property the packed second-moment stream rests
// on: svec is an isometry from the Frobenius norm to the L2 norm, so the
// distance between two packed outer products equals the Frobenius distance of
// the dense ones and the stream's sensitivity (2 on the unit ball) carries
// over unchanged.
func TestSvecIsometry(t *testing.T) {
	const d = 7
	src := randx.NewSource(17)
	a := make([]float64, svecLen(d))
	b := make([]float64, svecLen(d))
	for trial := 0; trial < 200; trial++ {
		x := vec.Vector(src.UnitSphere(d))
		y := vec.Vector(src.UnitSphere(d))
		if trial%4 == 0 {
			x[trial%d] = 0 // exercise the zero-row path
		}
		svecOuter(a, x)
		svecOuter(b, y)
		var packed float64
		for i := range a {
			packed += (a[i] - b[i]) * (a[i] - b[i])
		}
		diff := vec.Outer(x, x)
		diff.SubInPlace(vec.Outer(y, y))
		frob := diff.FrobeniusNorm()
		if math.Abs(math.Sqrt(packed)-frob) > 1e-12 {
			t.Fatalf("trial %d: ‖svec(xxᵀ) - svec(yyᵀ)‖ = %v, ‖xxᵀ - yyᵀ‖_F = %v", trial, math.Sqrt(packed), frob)
		}
		if frob > 2+1e-12 {
			t.Fatalf("trial %d: distance %v exceeds the sensitivity 2", trial, frob)
		}
	}
}

// TestSvecReleaseNoiseDistribution checks, over many noise keys, that the
// unpacked second-moment release Q̃ - Σxxᵀ has the distribution of the dense
// symmetrized release it replaces: diagonal noise of variance σ²·L_active and
// off-diagonal noise of half that, where L_active is the number of tree nodes
// the prefix sums.
func TestSvecReleaseNoiseDistribution(t *testing.T) {
	const (
		d       = 4
		horizon = 8
		steps   = 7 // 0b111: three active levels
		active  = 3
		keys    = 1500
	)
	c := constraint.NewL2Ball(d, 1)
	data := randx.NewSource(3)
	xs := make([]vec.Vector, steps)
	exact := vec.NewMatrix(d, d)
	for i := range xs {
		xs[i] = vec.Vector(data.UnitSphere(d))
		xs[i].Scale(0.9)
		exact.AddOuterInPlace(1, xs[i])
	}
	var diagSq, offSq float64
	var nDiag, nOff int
	var sigma float64
	for key := 0; key < keys; key++ {
		g, err := NewGradientRegression(c, privacy(), horizon, randx.NewSource(int64(1000+key)), RegressionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			if err := observe(g, loss.Point{X: x, Y: 0.1}); err != nil {
				t.Fatal(err)
			}
		}
		sigma = g.sumXXT.(*tree.Tree).NoiseSigma()
		q := g.Gradient().Q
		for i := 0; i < d; i++ {
			for j := i; j < d; j++ {
				e := q.At(i, j) - exact.At(i, j)
				if i == j {
					diagSq += e * e
					nDiag++
				} else {
					offSq += e * e
					nOff++
				}
			}
		}
	}
	want := sigma * sigma * active
	diagVar := diagSq / float64(nDiag)
	offVar := offSq / float64(nOff)
	if r := diagVar / want; r < 0.92 || r > 1.08 {
		t.Fatalf("diagonal noise variance %.4g, want σ²·%d = %.4g (ratio %.3f)", diagVar, active, want, r)
	}
	if r := offVar / (want / 2); r < 0.92 || r > 1.08 {
		t.Fatalf("off-diagonal noise variance %.4g, want σ²·%d/2 = %.4g (ratio %.3f)", offVar, active, want/2, r)
	}
	if r := diagVar / offVar; r < 1.8 || r > 2.2 {
		t.Fatalf("diagonal/off-diagonal noise variance ratio %.3f, want 2", r)
	}
}

// TestHybridGradientErrorScaleTracksHorizon is the regression test of the
// Hybrid-substrate α': it must be sized from the horizon like the fixed
// tree's, not from the one-level epoch-0 tree alive at construction. The
// Hybrid splits its budget once more, so its α' is somewhat larger.
func TestHybridGradientErrorScaleTracksHorizon(t *testing.T) {
	const d, horizon = 32, 1 << 19
	c := constraint.NewL2Ball(d, 1)
	p := dp.Params{Epsilon: 1, Delta: 1e-6}
	build := func(hybrid bool) float64 {
		g, err := NewGradientRegression(c, p, horizon, randx.NewSource(5), RegressionOptions{UseHybridTree: hybrid})
		if err != nil {
			t.Fatal(err)
		}
		return g.GradientErrorScale()
	}
	fixed, hybrid := build(false), build(true)
	if r := hybrid / fixed; r < 1 || r > 4 {
		t.Fatalf("Hybrid α' = %.4g, fixed-tree α' = %.4g: ratio %.3f outside [1, 4]", hybrid, fixed, r)
	}
}

// TestRegressionRejectsVersion2Checkpoint pins the format bumps of the
// regression checkpoints: blobs of the dense version-2 format (second-moment
// tree over the d² outer product) and of the version-3 format (projected
// blobs with the lifted iterate, the robust variant wrapping a nested
// projected blob) and of the version-4 format (per-level tree partial sums)
// of every regression mechanism are rejected at the version byte, and the
// error names the version. The old blobs are rebuilt field by field around
// trees of the old shapes; the version byte rejects them before a nested
// tree section is read.
func TestRegressionRejectsVersion2Checkpoint(t *testing.T) {
	const d, horizon = 4, 16
	c := constraint.NewL2Ball(d, 1)
	treeBlob := func(dim int) []byte {
		tr, err := tree.New(tree.Config{Dim: dim, MaxLen: horizon, Sensitivity: 2, Privacy: privacy().Halve()}, randx.NewSource(1))
		if err != nil {
			t.Fatal(err)
		}
		blob := codec.Encode(tr)
		return blob
	}
	// outer is the second-moment tree width of each version: dense d² in
	// version 2, svec d(d+1)/2 in version 3.
	outer := func(version uint8, dim int) int {
		if version == 2 {
			return dim * dim
		}
		return svecLen(dim)
	}
	gradOld := func(version uint8) []byte {
		var w codec.Writer
		w.Version(version)
		w.String("priv-inc-reg1")
		w.Int(d)
		w.Int(horizon)
		w.Int(0)
		w.F64s(make([]float64, d))
		w.Int(-1)
		w.F64s(nil)
		w.Blob(treeBlob(d))
		w.Blob(treeBlob(outer(version, d)))
		return w.Bytes()
	}
	projOld := func(version uint8, m int) []byte {
		var w codec.Writer
		w.Version(version)
		w.String("priv-inc-reg2")
		w.Int(d)
		w.Int(m)
		w.Int(horizon)
		w.Int(0)
		w.I64(1)
		w.Int(0)
		w.F64s(make([]float64, m))
		w.F64s(make([]float64, d))
		w.Int(-1)
		w.F64s(nil)
		w.Blob(treeBlob(m))
		w.Blob(treeBlob(outer(version, m)))
		return w.Bytes()
	}
	robustOld := func(version uint8, m int) []byte {
		var w codec.Writer
		w.Version(version)
		w.String("priv-inc-reg2-robust")
		w.Blob(projOld(version, m))
		w.Int(0)
		return w.Bytes()
	}
	grad, err := NewGradientRegression(c, privacy(), horizon, randx.NewSource(2), RegressionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	proj, err := NewProjectedRegression(c, c, privacy(), horizon, randx.NewSource(2), ProjectedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	robust, err := NewRobustProjectedRegression(c, c, func(vec.Vector) bool { return true }, privacy(), horizon, randx.NewSource(2), ProjectedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint8{2, 3, 4} {
		for _, tc := range []struct {
			name string
			mech Estimator
			blob []byte
		}{
			{"gradient", grad, gradOld(version)},
			{"projected", proj, projOld(version, proj.m)},
			{"robust-projected", robust, robustOld(version, robust.m)},
		} {
			err := tc.mech.UnmarshalBinary(tc.blob)
			if err == nil {
				t.Fatalf("%s-v%d: old checkpoint should be rejected", tc.name, version)
			}
			if want := fmt.Sprintf("version %d", version); !strings.Contains(err.Error(), want) {
				t.Fatalf("%s-v%d: rejection should name %s, got %v", tc.name, version, want, err)
			}
		}
	}
	// The version-4 layout is not read under the current version byte either:
	// its per-level sums are not the current exact-statistics section.
	blob := gradOld(4)
	blob[0] = regStateVersion
	if err := grad.UnmarshalBinary(blob); err == nil {
		t.Fatal("version-4 gradient layout under the current version byte should be rejected")
	}
}

// TestRegressionGradientReadAllocs pins the read path: once the first read
// has allocated the gradient workspace, releasing the sums and unpacking the
// svec sum into the d×d matrix allocates nothing, however many points arrive
// between reads.
func TestRegressionGradientReadAllocs(t *testing.T) {
	for _, name := range []string{"gradient", "projected"} {
		t.Run(name, func(t *testing.T) {
			mech, observe := allocMech(t, name, 1)
			reader := mech.(interface{ Gradient() *PrivateGradient })
			if err := observe(); err != nil {
				t.Fatal(err)
			}
			first := reader.Gradient()
			run := func() {
				if err := observe(); err != nil {
					t.Fatal(err)
				}
				if reader.Gradient() != first {
					t.Fatal("Gradient returned a new workspace")
				}
			}
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Fatalf("observe + Gradient allocates %.1f times, want 0", allocs)
			}
		})
	}
}
