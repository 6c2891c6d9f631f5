// Package tree implements the noise of the Tree Mechanism (also called the
// binary mechanism) of Dwork et al. and Chan et al. for differentially private
// continual release of vector sums, as described in Appendix C of "Private
// Incremental Regression" (Algorithm TREEMECH), together with the Hybrid
// Mechanism that removes the need to know the stream length in advance, and a
// naive per-step mechanism used as an ablation baseline.
//
// Given a stream of vectors υ_1, ..., υ_T with a bound Δ₂ on the L2 distance
// between any two domain elements, the Tree Mechanism releases at each timestep
// t a private estimate of the prefix sum S_t = Σ_{i≤t} υ_i whose error grows
// only polylogarithmically in T (Proposition C.1), while the whole output
// sequence is (ε, δ)-differentially private with respect to changing one
// stream element.
//
// Tree and Hybrid are noise overlays: they hold no partial sums. At every t
// the tree nodes a release sums are the dyadic blocks of [1, t], one per set
// bit j of t, so the release Σ_{j ∈ bits(t)} (node sum_j + z_j) equals
// S_t + N_t with N_t = Σ_{j ∈ bits(t)} z(key, j, t≫j). The caller keeps the
// exact S_t (the regression mechanisms keep it in an erm.MultiStats) and adds
// N_t with AddNoiseTo. A stream's state is therefore S_t, t and the noise key:
// O(d), not O(d log T). An overlay holds only its structural parameters, σ
// and the key; it keeps no noise buffer.
//
// Noise is counter-keyed and stateless: the noise vector of tree node (level
// j, dyadic index i) is a pure function of (noiseKey, j, i) — a keyed PRF
// stream fed through the ziggurat (randx.CounterSource) — regenerated at
// every release that sums the node and added straight into the destination.
// Because noise depends on the node's identity rather than on draw order,
// batch and scalar ingestion, eager and deferred estimates, and
// checkpoint/restore at any cut point all observe bit-identical outputs by
// construction. The privacy analysis is unchanged: each node still carries one
// fixed N(0, σ²I_d) draw, used consistently across every release it
// contributes to (see docs/PERFORMANCE.md for the design note).
package tree

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"privreg/internal/codec"
	"privreg/internal/dp"
	"privreg/internal/randx"
)

// Overlay is the common interface of the checkpointable noise overlays in
// this package. A continual-sum stream releases its exact running sum S_t plus
// the overlay's noise N_t at its count t.
type Overlay interface {
	// AddNoiseTo adds N_t, the release noise at stream length t, into dst
	// (which must have the overlay's dimension) in a fixed order, without
	// allocating. N_0 is zero.
	// It panics when t is negative or beyond a Tree's maximum length.
	AddNoiseTo(dst []float64, t int)
	// AppendState appends the overlay's checkpoint to w: its structural
	// parameters, for verification, and the noise key. The stream's count
	// and sums are the caller's.
	AppendState(w *codec.Writer)
	// UnmarshalState restores state captured by AppendState into an overlay
	// constructed with the same configuration; structural parameters are
	// verified and a mismatch is an error.
	UnmarshalState(data []byte) error
	// ReleaseSigma returns the standard deviation of each coordinate of the
	// noise in a running sum released at any stream length up to n. It sizes
	// error bounds from the construction parameters alone, so it does not
	// depend on how far the stream has progressed.
	ReleaseSigma(n int) float64
}

// Tree is the Tree Mechanism's noise overlay for a stream of known maximum
// length.
type Tree struct {
	dim         int
	maxT        int
	levels      int
	sensitivity float64
	sigma       float64
	// noiseKey keys the counter-based PRF: node (level j, dyadic index i) gets
	// the noise vector FillNormalAt(noiseKey, nodeIndex(j, i), ·, sigma),
	// independent of draw order.
	noiseKey int64
	// cs is the PRF stream scratch of AddNoiseTo, a field so that the read
	// path takes no address of a stack local (which would move it to the
	// heap on every node).
	cs randx.CounterSource
}

// Config collects the parameters of a Tree Mechanism instance.
type Config struct {
	// Dim is the dimension of the stream elements.
	Dim int
	// MaxLen is the maximum stream length T. The mechanism refuses elements
	// beyond MaxLen; use the Hybrid mechanism when T is unknown.
	MaxLen int
	// Sensitivity is Δ₂ = max_{υ,υ'∈Z} ‖υ - υ'‖₂, the L2 diameter of the domain.
	Sensitivity float64
	// Privacy is the (ε, δ) guarantee for the entire output sequence.
	Privacy dp.Params
}

// New returns a Tree Mechanism overlay for streams of length at most
// cfg.MaxLen.
//
// Following Algorithm 4 of the paper, every tree node is perturbed with
// N(0, σ² I_d) noise with σ = Δ₂ · L · sqrt(2 ln(2/δ)) / ε, where
// L = ⌈log₂ MaxLen⌉ + 1 is the number of tree levels (the paper writes log T for
// this quantity). Each stream element contributes to at most L nodes, so by the
// Gaussian mechanism and L-fold composition over levels the full sequence of
// node values — and hence every prefix-sum output, which is a post-processing of
// them — is (ε, δ)-differentially private.
//
// The noise key is drawn from the source (one draw, like Split), so distinct
// mechanisms constructed from the same Source receive independent keys —
// after construction the source is never consumed again, and all node noise
// is a pure function of (key, node identity).
func New(cfg Config, src *randx.Source) (*Tree, error) {
	if src == nil {
		return nil, errors.New("tree: nil randomness source")
	}
	return newWithKey(cfg, src.DeriveKey())
}

// newWithKey builds a Tree with the given noise key; New draws the key from
// a Source.
func newWithKey(cfg Config, noiseKey int64) (*Tree, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("tree: dimension must be positive, got %d", cfg.Dim)
	}
	if cfg.MaxLen <= 0 {
		return nil, fmt.Errorf("tree: max length must be positive, got %d", cfg.MaxLen)
	}
	if int64(cfg.MaxLen) > maxTreeLen {
		// Enforces the nodeIndex packing invariant: dyadic indices must fit
		// below the level field, or distinct nodes would share a PRF
		// coordinate (and thus a noise vector, voiding the independence the
		// composition analysis assumes).
		return nil, fmt.Errorf("tree: max length %d exceeds the supported maximum %d", cfg.MaxLen, maxTreeLen)
	}
	if cfg.Sensitivity < 0 {
		return nil, errors.New("tree: negative sensitivity")
	}
	if err := cfg.Privacy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Privacy.Delta == 0 {
		return nil, errors.New("tree: the Tree Mechanism with Gaussian noise requires delta > 0")
	}
	levels := numLevels(cfg.MaxLen)
	return &Tree{
		dim:         cfg.Dim,
		maxT:        cfg.MaxLen,
		levels:      levels,
		sensitivity: cfg.Sensitivity,
		sigma:       treeSigma(cfg.Sensitivity, levels, cfg.Privacy),
		noiseKey:    noiseKey,
	}, nil
}

// treeSigma is the per-node noise standard deviation of a Tree Mechanism with
// the given number of levels: Δ₂ · L · sqrt(2 ln(2/δ)) / ε (see New).
func treeSigma(sensitivity float64, levels int, p dp.Params) float64 {
	return sensitivity * float64(levels) * math.Sqrt(2*math.Log(2/p.Delta)) / p.Epsilon
}

// numLevels returns the number of dyadic levels needed for streams of length n.
func numLevels(n int) int {
	l := 1
	for p := 1; p < n; p <<= 1 {
		l++
	}
	return l
}

// maxTreeLen bounds MaxLen so dyadic node indices (at most MaxLen) always fit
// below the level field of nodeIndex. Typed int64 so the bound compiles (and
// is vacuously unreachable) on 32-bit platforms.
const maxTreeLen int64 = 1 << 48

// nodeIndex packs a tree node's identity — its level and its dyadic index
// within the level — into the 64-bit PRF node coordinate. Level fits in 8
// bits (levels ≤ 64); dyadic indices are at most maxTreeLen < 2^56, enforced
// at construction.
func nodeIndex(level int, idx uint64) uint64 {
	return uint64(level)<<56 | idx
}

// NoiseSigma returns the per-node Gaussian noise standard deviation.
func (tr *Tree) NoiseSigma() float64 { return tr.sigma }

// ReleaseSigma implements Overlay: a released prefix sum adds the noise of
// at most L nodes, so each coordinate has standard deviation at most σ·√L at
// every stream length.
func (tr *Tree) ReleaseSigma(int) float64 { return tr.sigma * math.Sqrt(float64(tr.levels)) }

// addTreeNoise adds the release noise N_t = Σ_{j ∈ bits(t)} z(key, j, t≫j)
// of a tree with per-node standard deviation sigma into dst, level by level
// from the lowest set bit up. Each node's vector is regenerated from the PRF
// stream (key, nodeIndex(j, t≫j)) in cs and added as it is drawn, so the
// result is a pure function of (key, sigma, t). It is shared by Tree and the
// Hybrid mechanism's in-epoch trees.
func addTreeNoise(cs *randx.CounterSource, dst []float64, key int64, sigma float64, t uint64) {
	for u := t; u != 0; u &= u - 1 {
		j := bits.TrailingZeros64(u)
		*cs = randx.NewCounterSource(key, nodeIndex(j, t>>uint(j)))
		cs.AddNormal(dst, sigma)
	}
}

// AddNoiseTo implements Overlay: it adds N_t = Σ_{j ∈ bits(t)} z(key, j, t≫j)
// into dst. A read at t regenerates the noise of the popcount(t) nodes it
// sums, O(levels·dim) draws, and allocates nothing.
func (tr *Tree) AddNoiseTo(dst []float64, t int) {
	if len(dst) != tr.dim {
		panic(fmt.Sprintf("tree: destination dimension %d does not match overlay dimension %d", len(dst), tr.dim))
	}
	if t < 0 || t > tr.maxT {
		panic(fmt.Sprintf("tree: stream length %d outside [0, %d]", t, tr.maxT))
	}
	addTreeNoise(&tr.cs, dst, tr.noiseKey, tr.sigma, uint64(t))
}

// ErrorBound returns a high-probability bound on the Euclidean error of the
// running-sum estimate at any single timestep, per Proposition C.1: with
// probability at least 1-β the error is at most
//
//	σ · ( √(L·d) + √(2 L ln(1/β)) )
//
// where L is the number of tree levels (at most L noisy nodes are summed, each
// with independent N(0, σ² I_d) noise, so the error is a Gaussian vector with
// total variance at most L·σ² per coordinate).
func (tr *Tree) ErrorBound(beta float64) float64 {
	if beta <= 0 || beta >= 1 {
		panic("tree: ErrorBound requires beta in (0,1)")
	}
	l := float64(tr.levels)
	d := float64(tr.dim)
	return tr.sigma * (math.Sqrt(l*d) + math.Sqrt(2*l*math.Log(1/beta)))
}

// treeStateVersion is the Tree checkpoint format version. Version 3 is the
// overlay format: the structural parameters and the noise key, with no
// stream position and no partial sums (the stream keeps its exact sum and
// count). Version-2 blobs (per-level exact partial sums) and version-1 blobs
// (noisy node buffers and a generator stream position) are rejected.
const treeStateVersion = 3

// AppendState implements Overlay: the construction parameters, which the
// restoring instance must share and which are embedded for verification, and
// the noise key. Noise is a pure function of (noiseKey, node), so no sampler
// position exists to capture.
func (tr *Tree) AppendState(w *codec.Writer) {
	w.Grow(56)
	w.Version(treeStateVersion)
	w.String("tree")
	w.Int(tr.dim)
	w.Int(tr.maxT)
	w.F64(tr.sensitivity)
	w.F64(tr.sigma)
	w.I64(tr.noiseKey)
}

// UnmarshalState implements Overlay: it restores state captured by
// AppendState into a Tree constructed with the same configuration. The noise
// key is taken from the checkpoint (the restoring instance may have been built
// with a different seed).
func (tr *Tree) UnmarshalState(data []byte) error {
	r := codec.NewReader(data)
	r.Version(treeStateVersion)
	r.ExpectString("mechanism kind", "tree")
	r.ExpectInt("dimension", tr.dim)
	r.ExpectInt("max length", tr.maxT)
	if s := r.F64(); r.Err() == nil && s != tr.sensitivity {
		return fmt.Errorf("tree: checkpoint sensitivity %g does not match configured %g", s, tr.sensitivity)
	}
	if s := r.F64(); r.Err() == nil && s != tr.sigma {
		return fmt.Errorf("tree: checkpoint noise scale %g does not match configured %g (privacy parameters differ)", s, tr.sigma)
	}
	noiseKey := r.I64()
	if err := r.Finish(); err != nil {
		return err
	}
	tr.noiseKey = noiseKey
	return nil
}
