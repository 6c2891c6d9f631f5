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
// O(d), not O(d log T). Only the per-level noise memo, a cache that is never
// checkpointed, grows with log T.
//
// Noise is counter-keyed and lazy: the noise vector of tree node (level j,
// dyadic index i) is a pure function of (noiseKey, j, i) — a keyed PRF stream
// fed through the ziggurat (randx.CounterSource) — and is materialized (and
// memoized per level) only when the node first participates in a released
// prefix sum. Because noise depends on the node's identity rather than on draw
// order, batch and scalar ingestion, eager and deferred estimates, and
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
	// allocating once the noise of the reached nodes is memoized. N_0 is zero.
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
	// Bytes returns the overlay's retained in-memory state in bytes: its
	// noise memo, the float buffers it keeps per level or per epoch. It is
	// O(1).
	Bytes() int
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

	// noise[j] memoizes the materialized noise vector of the level-j node
	// noiseIdx[j] (0 = none; live node indices are ≥ 1). A node stays the
	// level's active one for up to 2^j steps, so one buffer per level gives
	// full reuse across repeated estimates.
	noise    [][]float64
	noiseIdx []uint64
	// cs is the reusable PRF stream for noise materialization (kept as a field
	// so the hot path takes no address of a stack local).
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

// newWithKey is the construction path shared by New and the Hybrid mechanism's
// per-epoch trees (which derive their keys with randx.SubKey rather than from
// a Source).
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
	dim := cfg.Dim
	// One slab holds every level's noise memo. Per-level buffers of a few KB
	// each land in size classes whose spans fragment as a serving pool evicts
	// and faults streams in; one allocation per tree keeps them together and
	// frees them together. Each level's slice has its capacity capped at its
	// own length.
	slab := make([]float64, levels*dim)
	tr := &Tree{
		dim:         dim,
		maxT:        cfg.MaxLen,
		levels:      levels,
		sensitivity: cfg.Sensitivity,
		sigma:       treeSigma(cfg.Sensitivity, levels, cfg.Privacy),
		noiseKey:    noiseKey,
		noise:       make([][]float64, levels),
		noiseIdx:    make([]uint64, levels),
	}
	for j := range tr.noise {
		tr.noise[j] = slab[j*dim : (j+1)*dim : (j+1)*dim]
	}
	return tr, nil
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

// Bytes implements Overlay: the slab of per-level noise memos.
func (tr *Tree) Bytes() int { return 8 * tr.levels * tr.dim }

// nodeNoise returns the memoized noise vector of the level-j node with dyadic
// index idx, materializing it from the PRF stream on first use. Pure in
// (noiseKey, j, idx): re-materializing after a restore, or in a different
// instance, reproduces the identical vector.
func (tr *Tree) nodeNoise(j int, idx uint64) []float64 {
	if tr.noiseIdx[j] != idx {
		tr.cs = randx.NewCounterSource(tr.noiseKey, nodeIndex(j, idx))
		tr.cs.FillNormal(tr.noise[j], tr.sigma)
		tr.noiseIdx[j] = idx
	}
	return tr.noise[j]
}

// AddNoiseTo implements Overlay: it adds N_t = Σ_{j ∈ bits(t)} z(key, j, t≫j)
// into dst, level by level from the lowest set bit up. Node noise is memoized
// per level, so a repeated read at the same t costs O(levels·dim) additions
// and no allocation.
func (tr *Tree) AddNoiseTo(dst []float64, t int) {
	if len(dst) != tr.dim {
		panic(fmt.Sprintf("tree: destination dimension %d does not match overlay dimension %d", len(dst), tr.dim))
	}
	if t < 0 || t > tr.maxT {
		panic(fmt.Sprintf("tree: stream length %d outside [0, %d]", t, tr.maxT))
	}
	for u := uint64(t); u != 0; u &= u - 1 {
		j := bits.TrailingZeros64(u)
		nj := tr.nodeNoise(j, uint64(t)>>uint(j))
		for k := range dst {
			dst[k] += nj[k]
		}
	}
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
// with a different seed), and all noise memoization is invalidated — it will
// re-materialize identically on the next released estimate.
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
	for j := range tr.noiseIdx {
		tr.noiseIdx[j] = 0
	}
	return nil
}
