package randx

import "math"

// This file implements the normal sampler behind Source.Normal / FillNormal
// and the counter-keyed FillNormalAt: a 128-layer double-precision
// ziggurat (the ZIGNOR variant of Doornik, "An Improved Ziggurat Method to
// Generate Normal Random Samples", 2005). Compared to math/rand.NormFloat64 it
// uses float64 tables (no float32 rounding in the accept tests), draws the
// layer index, sign, and mantissa from disjoint bits of a single 64-bit word,
// and is generic over any Uint64 supplier — which is what lets the same
// routine run on both a Source's math/rand generator and the counter-mode PRF
// streams used for lazy node-noise materialization.
//
// The tables are computed once at init from math.Exp/Log/Sqrt; all inputs are
// exact dyadic rationals derived from integer bits, so the sampler is
// deterministic for a fixed bit stream (TestFillNormalAtGolden pins fixed-seed
// outputs).

const (
	zigLayers = 128
	// zigR is the start of the tail block and zigV the common block area for a
	// 128-layer normal ziggurat (Doornik's ZIGNOR_R / ZIGNOR_V constants).
	zigR = 3.442619855899
	zigV = 9.91256303526217e-3
	// inv53 maps a 53-bit integer to [0, 1).
	inv53 = 1.0 / (1 << 53)
)

var (
	// zigX[i] is the right edge of block i (zigX[0] is the "pseudo" base-block
	// width V/f(R), zigX[1] = R, decreasing to zigX[zigLayers] = 0).
	zigX [zigLayers + 1]float64
	// zigRatio[i] = zigX[i+1]/zigX[i] is the rectangle acceptance threshold.
	zigRatio [zigLayers]float64
)

func init() {
	f := math.Exp(-0.5 * zigR * zigR)
	zigX[0] = zigV / f
	zigX[1] = zigR
	zigX[zigLayers] = 0
	for i := 2; i < zigLayers; i++ {
		zigX[i] = math.Sqrt(-2 * math.Log(zigV/zigX[i-1]+f))
		f = math.Exp(-0.5 * zigX[i] * zigX[i])
	}
	for i := 0; i < zigLayers; i++ {
		zigRatio[i] = zigX[i+1] / zigX[i]
	}
}

// bitsSource supplies raw 64-bit words; both a Source's math/rand generator
// and *CounterSource (the keyed PRF stream) satisfy it.
type bitsSource interface {
	Uint64() uint64
}

// zigUniformPos returns a uniform sample in (0, 1] — strictly positive so it
// can be passed to math.Log.
func zigUniformPos(src bitsSource) float64 {
	return (float64(src.Uint64()>>11) + 1) * inv53
}

// zigNormal returns one N(0, 1) sample. One uint64 per attempt covers the
// layer index (7 bits), and a signed 53-bit mantissa; the wedge and tail paths
// (≈ 2.3% of attempts) draw extra words.
func zigNormal(src bitsSource) float64 {
	for {
		b := src.Uint64()
		i := int(b & (zigLayers - 1))
		u := float64(b>>11)*inv53*2 - 1 // uniform in [-1, 1)
		if math.Abs(u) < zigRatio[i] {
			// Inside the rectangle core of block i: accept immediately.
			return u * zigX[i]
		}
		if i == 0 {
			// Base block: sample the tail |x| > R by Marsaglia's method.
			neg := u < 0
			for {
				x := math.Log(zigUniformPos(src)) / zigR // ≤ 0
				y := math.Log(zigUniformPos(src))
				if -2*y >= x*x {
					if neg {
						return x - zigR
					}
					return zigR - x
				}
			}
		}
		// Wedge: accept x with probability proportional to the density gap
		// between the block edges (Doornik's exp-difference formulation, which
		// needs no density table).
		x := u * zigX[i]
		f0 := math.Exp(-0.5 * (zigX[i]*zigX[i] - x*x))
		f1 := math.Exp(-0.5 * (zigX[i+1]*zigX[i+1] - x*x))
		if f1+zigUniformPos(src)*(f0-f1) < 1.0 {
			return x
		}
	}
}
