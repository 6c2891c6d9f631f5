// Package tree implements the Tree Mechanism (also called the binary
// mechanism) of Dwork et al. and Chan et al. for differentially private
// continual release of vector sums, as described in Appendix C of "Private
// Incremental Regression" (Algorithm TREEMECH), together with the Hybrid
// Mechanism that removes the need to know the stream length in advance, and a
// naive per-step mechanism used as an ablation baseline.
//
// Given a stream of vectors υ_1, ..., υ_T with a bound Δ₂ on the L2 distance
// between any two domain elements, the Tree Mechanism releases at each timestep
// t a private estimate of the prefix sum Σ_{i≤t} υ_i whose error grows only
// polylogarithmically in T (Proposition C.1), while the whole output sequence
// is (ε, δ)-differentially private with respect to changing one stream element.
// Space usage is O(d log T): only one partial sum per tree level is retained.
//
// Noise is counter-keyed and lazy: the noise vector of tree node (level j,
// dyadic index i) is a pure function of (noiseKey, j, i) — a keyed PRF stream
// fed through the ziggurat (randx.CounterSource) — and is materialized (and
// memoized per level) only when the node first participates in a released
// prefix sum. Ingestion is therefore pure accumulation, and because noise
// depends on the node's identity rather than on draw order, batch and scalar
// ingestion, eager and deferred estimates, and checkpoint/restore at any cut
// point all observe bit-identical outputs by construction. The privacy
// analysis is unchanged: each node still carries one fixed N(0, σ²I_d) draw,
// used consistently across every release it contributes to — laziness moves
// the computation of that draw, not its joint distribution (see
// docs/PERFORMANCE.md for the design note).
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

// Mechanism is the common interface of the continual-sum mechanisms in this
// package. Add consumes the next stream element and returns the private
// estimate of the running sum after that element.
type Mechanism interface {
	// Add appends v to the stream and returns the private running-sum estimate.
	// The returned slice is owned by the caller.
	Add(v []float64) ([]float64, error)
	// AddTo appends v to the stream and, when dst is non-nil, writes the private
	// running-sum estimate into dst (which must have the mechanism's dimension).
	// It is the allocation-free fast path of Add: a nil dst consumes the element
	// and updates internal state without computing the estimate at all.
	AddTo(dst, v []float64) error
	// Sum returns the private running-sum estimate at the current timestep
	// without consuming a new element. Before any Add it returns the zero vector.
	Sum() []float64
	// SumInto writes the current private running-sum estimate into dst without
	// allocating. dst must have the mechanism's dimension.
	SumInto(dst []float64)
	// Len returns the number of elements consumed so far.
	Len() int
	// NoiseSigma returns the per-node (or per-step) Gaussian noise standard
	// deviation used internally. Exposed for diagnostics and tests.
	NoiseSigma() float64
	// AppendState appends the mechanism's complete mutable state — partial
	// sums, stream position, and the noise key — to w, such that a mechanism
	// constructed with the same configuration and restored with
	// UnmarshalState continues bit-identically to the original.
	AppendState(w *codec.Writer)
	// UnmarshalState restores state captured by AppendState into a mechanism
	// constructed with the same configuration; structural parameters are
	// verified and a mismatch is an error.
	UnmarshalState(data []byte) error
	// ReleaseSigma returns the standard deviation of each coordinate of the
	// noise in a running sum released at any stream length up to n. It sizes
	// error bounds from the construction parameters alone, so it does not
	// depend on how far the stream has progressed.
	ReleaseSigma(n int) float64
	// Bytes returns the mechanism's retained in-memory state in bytes: the
	// float buffers it keeps per level or per epoch. It is O(1).
	Bytes() int
}

// Tree is the Tree Mechanism for a stream of known maximum length.
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

	t int
	// alpha[j] is the in-progress (noise-free) partial sum at level j
	// (covering a dyadic range of length 2^j that has not yet been "closed").
	alpha [][]float64
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

// New returns a Tree Mechanism for streams of length at most cfg.MaxLen.
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
		// composition analysis assumes). 2^48 is far beyond any storable
		// stream (the partial sums alone would exceed memory first).
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
	// One slab holds every level's partial sum and every level's noise memo.
	// Per-level buffers of a few KB each land in size classes whose spans
	// fragment as a serving pool evicts and faults streams in; one allocation
	// per tree keeps them together and frees them together. Each level's
	// slice has its capacity capped at its own length.
	slab := make([]float64, 2*levels*dim)
	level := func(i int) []float64 { return slab[i*dim : (i+1)*dim : (i+1)*dim] }
	tr := &Tree{
		dim:         dim,
		maxT:        cfg.MaxLen,
		levels:      levels,
		sensitivity: cfg.Sensitivity,
		sigma:       treeSigma(cfg.Sensitivity, levels, cfg.Privacy),
		noiseKey:    noiseKey,
		alpha:       make([][]float64, levels),
		noise:       make([][]float64, levels),
		noiseIdx:    make([]uint64, levels),
	}
	for j := 0; j < levels; j++ {
		tr.alpha[j] = level(j)
		tr.noise[j] = level(levels + j)
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

// Dim returns the dimension of the stream elements.
func (tr *Tree) Dim() int { return tr.dim }

// MaxLen returns the configured maximum stream length.
func (tr *Tree) MaxLen() int { return tr.maxT }

// Len returns the number of elements consumed so far.
func (tr *Tree) Len() int { return tr.t }

// Levels returns the number of dyadic levels of the tree (⌈log₂ MaxLen⌉ + 1).
func (tr *Tree) Levels() int { return tr.levels }

// NoiseSigma returns the per-node Gaussian noise standard deviation.
func (tr *Tree) NoiseSigma() float64 { return tr.sigma }

// ReleaseSigma implements Mechanism: a released prefix sum adds the noise of
// at most L nodes, so each coordinate has standard deviation at most σ·√L at
// every stream length.
func (tr *Tree) ReleaseSigma(int) float64 { return tr.sigma * math.Sqrt(float64(tr.levels)) }

// Bytes implements Mechanism: the slab of per-level partial sums and
// per-level noise memos.
func (tr *Tree) Bytes() int { return 8 * 2 * tr.levels * tr.dim }

// Add consumes the next stream element and returns the private running sum.
func (tr *Tree) Add(v []float64) ([]float64, error) {
	out := make([]float64, tr.dim)
	if err := tr.AddTo(out, v); err != nil {
		return nil, err
	}
	return out, nil
}

// AddTo consumes the next stream element and, when dst is non-nil, writes the
// private running-sum estimate into dst. It performs no heap allocation and —
// with a nil dst — no noise sampling at all: ingestion is pure accumulation
// into the preallocated per-level partial sums, and node noise is materialized
// only when an estimate is actually released (here with dst non-nil, or at a
// later Sum/SumInto).
func (tr *Tree) AddTo(dst, v []float64) error {
	if len(v) != tr.dim {
		return fmt.Errorf("tree: element dimension %d does not match mechanism dimension %d", len(v), tr.dim)
	}
	if dst != nil && len(dst) != tr.dim {
		return fmt.Errorf("tree: destination dimension %d does not match mechanism dimension %d", len(dst), tr.dim)
	}
	if tr.t >= tr.maxT {
		return fmt.Errorf("tree: stream length exceeds configured maximum %d", tr.maxT)
	}
	tr.t++
	t := tr.t

	// i is the index of the lowest set bit of t: the level at which a dyadic
	// range closes at this timestep.
	i := lowestSetBit(t)
	if i >= tr.levels {
		// Cannot happen for t <= maxT, but guard anyway.
		i = tr.levels - 1
	}

	// a_i ← Σ_{j<i} a_j + υ_t  (fold the lower in-progress sums into level i).
	ai := tr.alpha[i]
	for j := 0; j < i; j++ {
		aj := tr.alpha[j]
		for k := range ai {
			ai[k] += aj[k]
		}
	}
	for k := range ai {
		ai[k] += v[k]
	}
	// Zero the lower levels.
	for j := 0; j < i; j++ {
		zero(tr.alpha[j])
	}

	// The running sum s_t = Σ_{j : Bin_j(t) ≠ 0} (a_j + noise_j) is pure
	// post-processing of the node values, so it is computed only when the
	// caller asks for it: here when dst is non-nil, otherwise at the next
	// Sum/SumInto, which amortizes both the aggregation and the noise
	// materialization across batched adds.
	if dst != nil {
		tr.SumInto(dst)
	}
	return nil
}

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

// Sum returns a copy of the current private running-sum estimate.
func (tr *Tree) Sum() []float64 {
	out := make([]float64, tr.dim)
	tr.SumInto(out)
	return out
}

// SumInto writes the current private running-sum estimate
// s_t = Σ_{j : Bin_j(t) ≠ 0} (a_j + noise_j) into dst without allocating.
// It is deterministic given (noiseKey, t) and the partial sums, so eager,
// lazy and repeated reads observe bit-identical estimates; node noise is
// memoized per level, so a repeated read costs O(levels·dim) additions.
func (tr *Tree) SumInto(dst []float64) {
	dst = dst[:tr.dim]
	zero(dst)
	for j := 0; j < tr.levels; j++ {
		if tr.t&(1<<uint(j)) == 0 {
			continue
		}
		aj := tr.alpha[j]
		nj := tr.nodeNoise(j, uint64(tr.t)>>uint(j))
		for k := range dst {
			dst[k] += aj[k] + nj[k]
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

// treeStateVersion is the Tree checkpoint format version. Version 2 is the
// counter-keyed lazy-noise format: it persists the noise key and the exact
// per-level partial sums only — node noise and the running sum are pure
// functions of them and are re-materialized on demand after restore. Version-1
// blobs (which carried noisy node buffers and a generator stream position) are
// rejected.
const treeStateVersion = 2

// AppendState implements Mechanism: it writes the stream position, the
// per-level exact partial sums, and the noise key. Together with the
// construction parameters — which the restoring instance must share, and which
// are embedded for verification — this is everything needed to continue
// bit-identically: noise is a pure function of (noiseKey, node), so no sampler
// position exists to capture.
func (tr *Tree) AppendState(w *codec.Writer) {
	size := 64 // version, kind, five scalars and the key
	for j := 0; j < tr.levels; j++ {
		size += 8 + 8*len(tr.alpha[j])
	}
	w.Grow(size)
	w.Version(treeStateVersion)
	w.String("tree")
	w.Int(tr.dim)
	w.Int(tr.maxT)
	w.F64(tr.sensitivity)
	w.F64(tr.sigma)
	w.Int(tr.t)
	for j := 0; j < tr.levels; j++ {
		w.F64s(tr.alpha[j])
	}
	w.I64(tr.noiseKey)
}

// UnmarshalState implements Mechanism: it restores state captured by
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
	t := r.Int()
	if r.Err() == nil && (t < 0 || t > tr.maxT) {
		return fmt.Errorf("tree: checkpoint stream position %d outside [0, %d]", t, tr.maxT)
	}
	for j := 0; j < tr.levels; j++ {
		r.F64sInto(tr.alpha[j])
	}
	noiseKey := r.I64()
	if err := r.Finish(); err != nil {
		return err
	}
	tr.t = t
	tr.noiseKey = noiseKey
	for j := range tr.noiseIdx {
		tr.noiseIdx[j] = 0
	}
	return nil
}

// lowestSetBit returns the index of the lowest set bit of t. The degenerate
// input t <= 0 (no set bit — the old hand-rolled shift loop spun forever on
// it) maps to level 0.
func lowestSetBit(t int) int {
	if t <= 0 {
		return 0
	}
	return bits.TrailingZeros(uint(t))
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
