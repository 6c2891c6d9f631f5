package tree

import (
	"math"
	"testing"

	"privreg/internal/codec"
	"privreg/internal/randx"
)

// This file is the double-count audit of the lazy aggregation paths: an
// independent reference implementation recomputes every released estimate
// from scratch — exact prefix sums straight off the element log plus the
// counter-keyed noise of exactly the nodes that should contribute — and a
// property test drives the mechanisms through randomly interleaved
// AddTo(nil)/AddTo(dst)/SumInto/checkpoint/restore sequences, requiring
// bit-identical agreement at every read. A double-count at a Hybrid epoch
// rollover, a stale lazy running sum, or noise attributed to the wrong node
// shows up as an exact mismatch.

// refTreeSum recomputes, from first principles, the Tree Mechanism's released
// estimate after t elements: for every set bit j of t the covering dyadic
// node is (j, t>>j), spanning elements ((t>>j − 1)·2^j, (t>>j)·2^j], and the
// estimate is the sum of those nodes' exact sums plus their counter-keyed
// noise vectors.
func refTreeSum(key int64, sigma float64, dim, t int, elems [][]float64) []float64 {
	out := make([]float64, dim)
	noise := make([]float64, dim)
	for j := 0; t>>uint(j) > 0; j++ {
		if t&(1<<uint(j)) == 0 {
			continue
		}
		idx := t >> uint(j)
		lo := (idx - 1) << uint(j) // node covers elements lo+1 .. idx<<j (1-based)
		hi := idx << uint(j)
		for e := lo; e < hi; e++ {
			for k := range out {
				out[k] += elems[e][k]
			}
		}
		randx.FillNormalAt(key, nodeIndex(j, uint64(idx)), noise, sigma)
		for k := range out {
			out[k] += noise[k]
		}
	}
	return out
}

// refHybridSum recomputes the Hybrid estimate after t elements: completed
// epoch k (length 2^k, elements (2^k−1, 2^{k+1}−1]) contributes its exact sum
// plus its snapshot noise, and the in-progress epoch contributes a refTreeSum
// over its own elements under its derived key.
func refHybridSum(h *Hybrid, t int, elems [][]float64) []float64 {
	epochs := 0
	for 1<<uint(epochs+1)-1 <= t {
		epochs++
	}
	// The epoch tree's noise scale is the one a length-2^epochs tree gets.
	epochSigma := treeSigma(h.sensitivity, numLevels(1<<uint(epochs)), h.privacy.Halve())
	dim := h.dim
	out := make([]float64, dim)
	noise := make([]float64, dim)
	epoch := 0
	start := 0 // 0-based index of the current epoch's first element
	for {
		length := 1 << uint(epoch)
		if start+length > t {
			break
		}
		// Epoch is complete: exact sum + snapshot noise.
		for e := start; e < start+length; e++ {
			for k := range out {
				out[k] += elems[e][k]
			}
		}
		randx.FillNormalAt(h.noiseKey, snapshotNode(epoch), noise, h.logSigma)
		for k := range out {
			out[k] += noise[k]
		}
		start += length
		epoch++
	}
	// In-progress epoch through its own tree (possibly empty).
	sub := elems[start:t]
	tsum := refTreeSum(epochTreeKey(h.noiseKey, epoch), epochSigma, dim, len(sub), sub)
	for k := range out {
		out[k] += tsum[k]
	}
	return out
}

// refNaiveSum recomputes the NaiveSum release after t elements.
func refNaiveSum(key int64, sigma float64, dim, t int, elems [][]float64) []float64 {
	out := make([]float64, dim)
	if t == 0 {
		return out
	}
	for e := 0; e < t; e++ {
		for k := range out {
			out[k] += elems[e][k]
		}
	}
	noise := make([]float64, dim)
	randx.FillNormalAt(key, uint64(t), noise, sigma)
	for k := range out {
		out[k] += noise[k]
	}
	return out
}

// refSum dispatches to the kind's reference implementation.
func refSum(m releaser, t int, elems [][]float64) []float64 {
	switch mm := m.(type) {
	case *sumStream:
		switch ov := mm.ov.(type) {
		case *Tree:
			return refTreeSum(ov.noiseKey, ov.sigma, ov.dim, t, elems)
		case *Hybrid:
			return refHybridSum(ov, t, elems)
		}
	case *NaiveSum:
		return refNaiveSum(mm.noiseKey, mm.sigma, mm.dim, t, elems)
	}
	panic("unknown mechanism")
}

// TestInterleavedOpsMatchReference is the audit property test: random
// interleavings of lazy adds, eager adds, estimate reads, and mid-stream
// checkpoint/restore (into instances built with different seeds) must match
// the reference implementation bit-for-bit at every read.
func TestInterleavedOpsMatchReference(t *testing.T) {
	const dim, maxLen = 3, 96
	for _, kind := range []string{"tree", "hybrid", "naive-sum"} {
		t.Run(kind, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				driver := randx.NewSource(int64(1000*trial + 17))
				mech := buildMechanism(t, kind, dim, maxLen, int64(trial+1))
				elems := make([][]float64, 0, maxLen)
				dst := make([]float64, dim)

				// The reference accumulates in its own order, so agreement is up
				// to float association (a few ulps); any double-count or
				// mis-keyed noise vector is orders of magnitude larger. (Exact
				// bit-identity between the mechanism's own paths is covered by
				// TestLazySumMatchesEager and the checkpoint tests.)
				check := func(got []float64, label string) {
					t.Helper()
					want := refSum(mech, len(elems), elems)
					for k := range want {
						if math.Abs(got[k]-want[k]) > 1e-9*(1+math.Abs(want[k])) {
							t.Fatalf("trial %d %s at t=%d coord %d: mechanism %v != reference %v",
								trial, label, len(elems), k, got[k], want[k])
						}
					}
				}

				for len(elems) < maxLen {
					switch driver.Intn(6) {
					case 0, 1: // lazy add
						v := driver.NormalVector(dim, 1)
						elems = append(elems, v)
						if err := mech.AddTo(nil, v); err != nil {
							t.Fatal(err)
						}
					case 2: // eager add
						v := driver.NormalVector(dim, 1)
						elems = append(elems, v)
						if err := mech.AddTo(dst, v); err != nil {
							t.Fatal(err)
						}
						check(dst, "AddTo")
					case 3: // SumInto read
						mech.SumInto(dst)
						check(dst, "SumInto")
					case 4: // read into a fresh vector
						check(sum(mech, dim), "Sum")
					case 5: // checkpoint, restore into a differently seeded instance
						// (NaiveSum has no checkpoint and only reads)
						if m, ok := mech.(checkpointer); ok {
							restored := buildMechanism(t, kind, dim, maxLen, int64(9000+trial))
							if err := restored.(checkpointer).UnmarshalState(codec.Encode(m)); err != nil {
								t.Fatal(err)
							}
							mech = restored
						}
						check(sum(mech, dim), "post-restore Sum")
					}
				}
				check(sum(mech, dim), "final Sum")
			}
		})
	}
}

// TestHybridEpochRolloverNoDoubleCount pins the rollover accounting directly:
// at every epoch boundary crossing, the released estimate of a low-noise
// Hybrid must stay within noise tolerance of the exact prefix sum — a
// double-counted epoch (folded into the completed accumulator while still in
// the tree term) would show up as a near-2× error at the boundary.
func TestHybridEpochRolloverNoDoubleCount(t *testing.T) {
	ov, err := NewHybrid(2, 2, lowNoise(), randx.NewSource(31))
	if err != nil {
		t.Fatal(err)
	}
	h := hybridStream(ov)
	exact := []float64{0, 0}
	for i := 1; i <= 130; i++ { // crosses boundaries at 1, 3, 7, 15, 31, 63, 127
		v := []float64{1, -0.5}
		exact[0] += v[0]
		exact[1] += v[1]
		got, err := add(h, v)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[0]-exact[0]) > 1e-2 || math.Abs(got[1]-exact[1]) > 1e-2 {
			t.Fatalf("t=%d: got %v, exact %v", i, got, exact)
		}
		// A lazy reader must agree with the eager value bit-for-bit.
		lazy := sum(h, 2)
		if lazy[0] != got[0] || lazy[1] != got[1] {
			t.Fatalf("t=%d: Sum %v != AddTo estimate %v", i, lazy, got)
		}
	}
}
