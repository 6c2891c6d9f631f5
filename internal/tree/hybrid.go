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

// snapshotNode is the PRF node-coordinate namespace of the Hybrid mechanism's
// per-epoch snapshot noise; the high bit separates it from any tree node
// coordinate (whose level field is < 64).
func snapshotNode(epoch int) uint64 { return 1<<63 | uint64(epoch) }

// epochTreeKey derives the noise key of epoch k's in-epoch tree from the
// Hybrid's own key — a pure function, so a restored mechanism re-derives the
// identical keys without replaying any stream.
func epochTreeKey(noiseKey int64, epoch int) int64 {
	return randx.SubKey(noiseKey, uint64(epoch)+1)
}

// Hybrid implements the Hybrid Mechanism of Chan, Shi and Song: a continual
// private sum mechanism that does not require the stream length in advance and
// achieves asymptotically the same error as the Tree Mechanism (footnote 13 of
// the paper).
//
// The construction combines two components, each given half of the privacy
// budget:
//
//   - a "logarithmic" mechanism that, every time the stream length reaches a
//     power of two, publishes a fresh noisy snapshot of that epoch's sum (the
//     epochs partition the stream, so each element is perturbed once here, and
//     prefixes are reconstructed as sums of at most ⌈log₂ t⌉ noisy terms); and
//   - within each epoch (2^k, 2^{k+1}], a fresh Tree Mechanism of length 2^k
//     over only the elements of that epoch.
//
// The reported running sum is Σ completed-epoch snapshots + in-epoch tree sum.
//
// Like Tree, all noise is counter-keyed and lazy: epoch k's snapshot noise is
// a pure function of (noiseKey, k) and epoch trees derive their keys with
// epochTreeKey, so ingestion — including epoch rollover — samples nothing and
// the released sequence is independent of when estimates are read.
type Hybrid struct {
	dim         int
	sensitivity float64
	privacy     dp.Params
	noiseKey    int64

	t int
	// completedExact is the noise-free sum of all elements in completed epochs
	// (private state; never released raw — releases add the snapshot noise).
	completedExact []float64
	// epochs counts completed epochs; epoch k (0-based) has length 2^k.
	epochs int
	// noiseSum memoizes Σ_{k < noised} snapshot noise of completed epochs;
	// lagging epochs are materialized at the next released estimate.
	noiseSum []float64
	noised   int
	// epochExact is the noise-free sum of the current epoch's elements, folded
	// into completedExact at the epoch boundary.
	epochExact []float64
	// epochTree handles the current epoch.
	epochTree *Tree
	epochLen  int
	logSigma  float64
}

// NewHybrid returns a Hybrid mechanism for streams of unbounded (unknown)
// length with the given element dimension, L2 sensitivity and privacy budget.
// The noise key is drawn from the source (one draw, like Split); after
// construction the source is never consumed again.
func NewHybrid(dim int, sensitivity float64, p dp.Params, src *randx.Source) (*Hybrid, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("tree: dimension must be positive, got %d", dim)
	}
	if sensitivity < 0 {
		return nil, errors.New("tree: negative sensitivity")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Delta == 0 {
		return nil, errors.New("tree: the Hybrid mechanism with Gaussian noise requires delta > 0")
	}
	if src == nil {
		return nil, errors.New("tree: nil randomness source")
	}
	half := p.Halve()
	// The logarithmic component: each element is contained in every snapshot at
	// or after its epoch. A change of one element shifts every subsequent
	// snapshot by at most Δ₂. Rather than composing over an unbounded number of
	// snapshots, the standard trick is to publish at epoch k the noisy sum of
	// elements of epoch k only (a disjoint partition, sensitivity Δ₂ once), and
	// reconstruct the prefix as the sum of per-epoch noisy sums. The number of
	// noisy terms summed is ⌈log₂ t⌉, giving polylog error.
	logSigma, err := dp.GaussianSigma(sensitivity, half)
	if err != nil {
		return nil, err
	}
	h := &Hybrid{
		dim:            dim,
		sensitivity:    sensitivity,
		privacy:        p,
		noiseKey:       src.DeriveKey(),
		completedExact: make([]float64, dim),
		noiseSum:       make([]float64, dim),
		epochExact:     make([]float64, dim),
		logSigma:       logSigma,
	}
	if err := h.startEpoch(0); err != nil {
		return nil, err
	}
	return h, nil
}

// startEpoch constructs epoch k's in-epoch tree (length 2^k) with its derived
// noise key.
func (h *Hybrid) startEpoch(epoch int) error {
	length := 1 << uint(epoch)
	et, err := newWithKey(Config{
		Dim:         h.dim,
		MaxLen:      length,
		Sensitivity: h.sensitivity,
		Privacy:     h.privacy.Halve(),
	}, epochTreeKey(h.noiseKey, epoch))
	if err != nil {
		return err
	}
	h.epochTree = et
	h.epochLen = length
	return nil
}

// Dim returns the element dimension.
func (h *Hybrid) Dim() int { return h.dim }

// Len returns the number of elements consumed so far.
func (h *Hybrid) Len() int { return h.t }

// NoiseSigma returns the per-node noise standard deviation of the current
// epoch's tree component.
func (h *Hybrid) NoiseSigma() float64 { return h.epochTree.NoiseSigma() }

// ReleaseSigma implements Mechanism. A prefix of length up to n sums the
// snapshot noise of at most ⌈log₂ n⌉ completed epochs and the release noise
// of one epoch tree. The noisiest epoch tree such a prefix can reach is that
// of epoch ⌊log₂ n⌋ (length 2^⌊log₂ n⌋, one level more than its exponent),
// so the bound depends on n only, never on the current epoch.
func (h *Hybrid) ReleaseSigma(n int) float64 {
	if n < 1 {
		n = 1
	}
	snapshots := float64(bits.Len(uint(n - 1))) // ⌈log₂ n⌉
	levels := numLevels(1 << uint(bits.Len(uint(n))-1))
	treeSig := treeSigma(h.sensitivity, levels, h.privacy.Halve())
	return math.Sqrt(snapshots*h.logSigma*h.logSigma + float64(levels)*treeSig*treeSig)
}

// Bytes implements Mechanism: the three d-vectors of exact sums and memoized
// snapshot noise, plus the current epoch tree.
func (h *Hybrid) Bytes() int { return 8*3*h.dim + h.epochTree.Bytes() }

// AddTo consumes the next stream element and, when dst is non-nil, writes the
// private running-sum estimate into dst. The steady-state path (all timesteps
// except the O(log T) epoch boundaries, which construct the next epoch's tree)
// performs no heap allocation, and no path samples noise: an epoch boundary
// only folds the exact epoch sum forward — its snapshot noise is materialized
// at the next released estimate.
func (h *Hybrid) AddTo(dst, v []float64) error {
	if len(v) != h.dim {
		return fmt.Errorf("tree: element dimension %d does not match mechanism dimension %d", len(v), h.dim)
	}
	if dst != nil && len(dst) != h.dim {
		return fmt.Errorf("tree: destination dimension %d does not match mechanism dimension %d", len(dst), h.dim)
	}
	h.t++
	for k := range h.epochExact {
		h.epochExact[k] += v[k]
	}
	if err := h.epochTree.AddTo(nil, v); err != nil {
		return err
	}
	// If the epoch just completed, fold its exact sum into the completed-epoch
	// accumulator and start the next (doubled) epoch. Estimates at and after
	// this timestep use the epoch's snapshot noise (one Gaussian per
	// coordinate) instead of its tree sum — a strictly less noisy, equally
	// private release of the same prefix.
	if h.epochTree.Len() == h.epochLen {
		for k := range h.completedExact {
			h.completedExact[k] += h.epochExact[k]
		}
		zero(h.epochExact)
		h.epochs++
		if err := h.startEpoch(h.epochs); err != nil {
			return err
		}
	}
	if dst != nil {
		h.SumInto(dst)
	}
	return nil
}

// SumInto writes the current private running-sum estimate — completed-epoch
// snapshots plus the in-epoch tree sum — into dst without allocating,
// materializing any lagging snapshot noise first. Deterministic given
// (noiseKey, t), so eager, lazy and repeated reads observe bit-identical
// estimates.
func (h *Hybrid) SumInto(dst []float64) {
	if h.noised < h.epochs {
		buf := randx.GetBuf(h.dim)
		for h.noised < h.epochs {
			randx.FillNormalAt(h.noiseKey, snapshotNode(h.noised), *buf, h.logSigma)
			for k := range h.noiseSum {
				h.noiseSum[k] += (*buf)[k]
			}
			h.noised++
		}
		randx.PutBuf(buf)
	}
	dst = dst[:h.dim]
	h.epochTree.SumInto(dst)
	for k := range dst {
		dst[k] = h.completedExact[k] + h.noiseSum[k] + dst[k]
	}
}

// hybridStateVersion is the Hybrid checkpoint format version. Version 2 is
// the counter-keyed lazy-noise format (see treeStateVersion).
const hybridStateVersion = 2

// AppendState implements Mechanism for the Hybrid mechanism: it captures the
// exact accumulators, the epoch counter, the in-progress epoch (as a nested
// Tree section), and the noise key. Snapshot noise is a pure function of
// (noiseKey, epoch) and is re-materialized on demand after restore.
func (h *Hybrid) AppendState(w *codec.Writer) {
	w.Grow(96 + 8*(len(h.completedExact)+len(h.epochExact)))
	w.Version(hybridStateVersion)
	w.String("hybrid")
	w.Int(h.dim)
	w.F64(h.sensitivity)
	w.F64(h.logSigma)
	w.Int(h.t)
	w.F64s(h.completedExact)
	w.F64s(h.epochExact)
	w.Int(h.epochs)
	w.Nested(h.epochTree)
	w.I64(h.noiseKey)
}

// UnmarshalState implements Mechanism: it restores state captured by
// AppendState into a Hybrid constructed with the same configuration.
func (h *Hybrid) UnmarshalState(data []byte) error {
	r := codec.NewReader(data)
	r.Version(hybridStateVersion)
	r.ExpectString("mechanism kind", "hybrid")
	r.ExpectInt("dimension", h.dim)
	if s := r.F64(); r.Err() == nil && s != h.sensitivity {
		return fmt.Errorf("tree: checkpoint sensitivity %g does not match configured %g", s, h.sensitivity)
	}
	if s := r.F64(); r.Err() == nil && s != h.logSigma {
		return fmt.Errorf("tree: checkpoint noise scale %g does not match configured %g (privacy parameters differ)", s, h.logSigma)
	}
	t := r.Int()
	r.F64sInto(h.completedExact)
	r.F64sInto(h.epochExact)
	epochs := r.Int()
	treeBlob := r.Blob()
	noiseKey := r.I64()
	if err := r.Finish(); err != nil {
		return err
	}
	if t < 0 || epochs < 0 || epochs > 62 {
		return fmt.Errorf("tree: corrupt hybrid checkpoint (t=%d, epochs=%d)", t, epochs)
	}
	h.t = t
	h.epochs = epochs
	h.noiseKey = noiseKey
	// Rebuild the in-progress epoch tree for the checkpointed epoch and restore
	// its state (which carries its own noise key).
	if err := h.startEpoch(epochs); err != nil {
		return err
	}
	if err := h.epochTree.UnmarshalState(treeBlob); err != nil {
		return err
	}
	// Snapshot-noise memoization restarts from scratch; it re-materializes
	// identically from (noiseKey, epoch) at the next released estimate.
	zero(h.noiseSum)
	h.noised = 0
	return nil
}

// NaiveSum is the baseline continual-sum mechanism that perturbs the running
// sum independently at every timestep, splitting the privacy budget across the
// T releases with advanced composition. Its error grows like √T (times √d),
// versus polylog(T) for the Tree Mechanism; the ablation benchmark
// BenchmarkAblationTreeVsNaiveSum quantifies the gap.
//
// The per-release noise is counter-keyed by the timestep: release t carries
// the noise vector FillNormalAt(noiseKey, t, ·, σ), drawn lazily when the
// release is actually read and memoized per timestep, so repeated reads of the
// same release observe the same value — exactly as the eager implementation's
// cached release did.
type NaiveSum struct {
	dim      int
	sigma    float64
	noiseKey int64
	t        int
	exact    []float64
	// noise memoizes the release noise of timestep noiseT (0 = none yet).
	noise  []float64
	noiseT int
	cs     randx.CounterSource
}

// NewNaiveSum returns a naive continual-sum mechanism for streams of length at
// most maxLen with the given sensitivity and total privacy budget.
func NewNaiveSum(dim, maxLen int, sensitivity float64, p dp.Params, src *randx.Source) (*NaiveSum, error) {
	if dim <= 0 || maxLen <= 0 {
		return nil, errors.New("tree: dimension and max length must be positive")
	}
	if src == nil {
		return nil, errors.New("tree: nil randomness source")
	}
	per, err := dp.PerInvocationAdvanced(p, maxLen)
	if err != nil {
		return nil, err
	}
	sigma, err := dp.GaussianSigma(sensitivity, per)
	if err != nil {
		return nil, err
	}
	return &NaiveSum{
		dim:      dim,
		sigma:    sigma,
		noiseKey: src.DeriveKey(),
		exact:    make([]float64, dim),
		noise:    make([]float64, dim),
	}, nil
}

// AddTo consumes the next stream element and, when dst is non-nil, writes the
// timestep's perturbed running sum into dst without allocating. With a nil
// dst nothing is sampled: the release noise of a timestep materializes only
// when that release is read.
func (n *NaiveSum) AddTo(dst, v []float64) error {
	if len(v) != n.dim {
		return fmt.Errorf("tree: element dimension %d does not match mechanism dimension %d", len(v), n.dim)
	}
	if dst != nil && len(dst) != n.dim {
		return fmt.Errorf("tree: destination dimension %d does not match mechanism dimension %d", len(dst), n.dim)
	}
	n.t++
	for k := range n.exact {
		n.exact[k] += v[k]
	}
	if dst != nil {
		n.SumInto(dst)
	}
	return nil
}

// SumInto writes the current timestep's private running-sum estimate into dst
// without allocating. Before any AddTo it writes the zero vector.
func (n *NaiveSum) SumInto(dst []float64) {
	if n.t == 0 {
		for k := range dst {
			dst[k] = 0
		}
		return
	}
	if n.noiseT != n.t {
		n.cs = randx.NewCounterSource(n.noiseKey, uint64(n.t))
		n.cs.FillNormal(n.noise, n.sigma)
		n.noiseT = n.t
	}
	for k := range dst {
		dst[k] = n.exact[k] + n.noise[k]
	}
}

// Interface conformance checks.
var (
	_ Mechanism = (*Tree)(nil)
	_ Mechanism = (*Hybrid)(nil)
)
