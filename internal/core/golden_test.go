package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"privreg/internal/codec"
	"privreg/internal/constraint"
	"privreg/internal/loss"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// goldenReads are the stream lengths at which TestRegressionEstimateGolden
// reads an estimate. The stream is checkpointed after the third read and
// continued on a freshly constructed instance restored from that blob.
var goldenReads = []int{1, 5, 12, 30, 48}

// goldenMech builds one of the regression mechanisms pinned by the golden test
// (d = 8, horizon 64, fixed seed).
func goldenMech(t *testing.T, name string) Estimator {
	t.Helper()
	const d, horizon = 8, 64
	c := constraint.NewL2Ball(d, 1)
	src := randx.NewSource(29)
	var mech Estimator
	var err error
	switch name {
	case "gradient-tree":
		mech, err = NewGradientRegression(c, privacy(), horizon, src, RegressionOptions{WarmStart: true})
	case "gradient-hybrid":
		mech, err = NewGradientRegression(c, privacy(), horizon, src, RegressionOptions{WarmStart: true, UseHybridTree: true})
	case "projected":
		mech, err = NewProjectedRegression(c, c, privacy(), horizon, src, ProjectedOptions{ProjectionDim: 5})
	case "robust-projected":
		mech, err = NewRobustProjectedRegression(c, c, goldenOracle, privacy(), horizon, src,
			ProjectedOptions{ProjectionDim: 5, RegressionOptions: RegressionOptions{WarmStart: true}})
	default:
		t.Fatalf("unknown mechanism %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return mech
}

// goldenOracle rejects rows whose first covariate is above 0.2, roughly a
// quarter of the golden stream.
func goldenOracle(x vec.Vector) bool { return x[0] <= 0.2 }

// estimateDigest is the FNV-64a hash of the Float64bits of every coordinate.
func estimateDigest(theta vec.Vector) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range theta {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestRegressionEstimateGolden pins the released estimates of the paper's
// regression mechanisms bit for bit: at each read the FNV-64a digest of the
// estimate's Float64bits must match the recorded value. Reads alternate
// between one-row and multi-row ObserveRows calls, a repeated read at the
// same length goes through the memo, and the stream is carried across a
// checkpoint into a fresh instance. Set PRIVREG_GOLDEN_PRINT=1 to print the digests instead.
func TestRegressionEstimateGolden(t *testing.T) {
	want := map[string][]uint64{
		"gradient-tree":    {0x968a3e53bb27cc85, 0xd5effc7e0d3f3561, 0xb4b9a32c998ba70d, 0xce9d12d457fdbfe0, 0xc0bfb621375b3408},
		"gradient-hybrid":  {0x4ec2d94b28f837ab, 0xda749dc85c3460f6, 0x6bf14a7ba184d920, 0xaa5683117cbd4c0f, 0x8e91e4d3e166c96c},
		"projected":        {0x7fd4157eea2e9519, 0x930bf63a58e9c80a, 0xc5166db6b9b4aade, 0xcba0d1f9dfc7c2e6, 0x42f2beb5da7d7304},
		"robust-projected": {0x7fd4157eea2e9519, 0x908f89981abf49af, 0xba784f52e4877bfe, 0x9b51fa5a3005d215, 0xf537ad8f84959e00},
	}
	const wantDropped = 14
	print := os.Getenv("PRIVREG_GOLDEN_PRINT") != ""
	for _, name := range []string{"gradient-tree", "gradient-hybrid", "projected", "robust-projected"} {
		t.Run(name, func(t *testing.T) {
			const d = 8
			mech := goldenMech(t, name)
			rows := randx.NewSource(31)
			ps := make([]loss.Point, goldenReads[len(goldenReads)-1])
			for i := range ps {
				ps[i] = loss.Point{X: vec.Vector(rows.NormalVector(d, 0.4)), Y: rows.Normal(0, 0.6)}
			}
			got := make([]uint64, len(goldenReads))
			at := 0
			for i, n := range goldenReads {
				chunk := ps[at:n]
				if i%2 == 0 {
					for _, p := range chunk {
						if err := observe(mech, p); err != nil {
							t.Fatal(err)
						}
					}
				} else if err := observePoints(mech, chunk); err != nil {
					t.Fatal(err)
				}
				at = n
				theta, err := mech.Estimate()
				if err != nil {
					t.Fatal(err)
				}
				again, err := mech.Estimate()
				if err != nil {
					t.Fatal(err)
				}
				if !vec.Equal(theta, again, 0) {
					t.Fatalf("t=%d: repeated read differs from the first", n)
				}
				got[i] = estimateDigest(theta)
				if i == 2 {
					blob := codec.Encode(mech)
					mech = goldenMech(t, name)
					if err := mech.UnmarshalBinary(blob); err != nil {
						t.Fatal(err)
					}
				}
			}
			dropped := -1
			if r, ok := mech.(interface{ Dropped() int }); ok {
				dropped = r.Dropped()
			}
			if print {
				fmt.Printf("%q: {%#x, %#x, %#x, %#x, %#x}, dropped %d\n", name, got[0], got[1], got[2], got[3], got[4], dropped)
				return
			}
			for i := range got {
				if got[i] != want[name][i] {
					t.Errorf("t=%d: estimate digest %#x, want %#x", goldenReads[i], got[i], want[name][i])
				}
			}
			if name == "robust-projected" && dropped != wantDropped {
				t.Errorf("Dropped = %d, want %d", dropped, wantDropped)
			}
		})
	}
}
