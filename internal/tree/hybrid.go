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

// Hybrid is the noise overlay of the Hybrid Mechanism of Chan, Shi and Song:
// a continual private sum mechanism that does not require the stream length in
// advance and achieves asymptotically the same error as the Tree Mechanism
// (footnote 13 of the paper).
//
// The construction combines two components, each given half of the privacy
// budget:
//
//   - a "logarithmic" mechanism that, every time the stream length reaches a
//     power of two, publishes a fresh noisy snapshot of that epoch's sum (the
//     epochs partition the stream, so each element is perturbed once here, and
//     prefixes are reconstructed as sums of at most ⌈log₂ t⌉ noisy terms); and
//   - within each epoch (2^k − 1, 2^{k+1} − 1], a fresh Tree Mechanism of
//     length 2^k over only the elements of that epoch.
//
// The reported running sum is Σ completed-epoch snapshots + in-epoch tree sum.
// The exact parts of both add up to S_t, so the release is S_t + N_t, where
// N_t is the snapshot noise of the completed epochs plus the in-epoch tree's
// noise at the epoch's own count; AddNoiseTo adds N_t.
//
// Like Tree, all noise is counter-keyed and stateless: epoch k's snapshot
// noise is a pure function of (noiseKey, k) and epoch trees derive their keys
// with epochTreeKey, so the released sequence is independent of when
// estimates are read, and the overlay keeps no noise buffer.
type Hybrid struct {
	dim         int
	sensitivity float64
	privacy     dp.Params
	noiseKey    int64
	logSigma    float64
	// cs is the PRF stream scratch of AddNoiseTo (see Tree.cs).
	cs randx.CounterSource
}

// NewHybrid returns a Hybrid overlay for streams of unbounded (unknown) length
// with the given element dimension, L2 sensitivity and privacy budget. The
// noise key is drawn from the source (one draw, like Split); after
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
	// The logarithmic component: each element is contained in every snapshot at
	// or after its epoch. A change of one element shifts every subsequent
	// snapshot by at most Δ₂. Rather than composing over an unbounded number of
	// snapshots, the standard trick is to publish at epoch k the noisy sum of
	// elements of epoch k only (a disjoint partition, sensitivity Δ₂ once), and
	// reconstruct the prefix as the sum of per-epoch noisy sums. The number of
	// noisy terms summed is ⌈log₂ t⌉, giving polylog error.
	logSigma, err := dp.GaussianSigma(sensitivity, p.Halve())
	if err != nil {
		return nil, err
	}
	return &Hybrid{
		dim:         dim,
		sensitivity: sensitivity,
		privacy:     p,
		noiseKey:    src.DeriveKey(),
		logSigma:    logSigma,
	}, nil
}

// ReleaseSigma implements Overlay. A prefix of length up to n sums the
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

// AddNoiseTo implements Overlay: after t elements, epochs 0..e−1 are complete,
// e = ⌊log₂(t+1)⌋, and the current epoch holds s = t − (2^e − 1) elements.
// It sums the completed epochs' snapshot noise in epoch order into a pooled
// scratch, adds that sum to dst, and then adds the noise of epoch e's tree
// (length 2^e, key epochTreeKey(noiseKey, e)) at s. It allocates nothing in
// steady state.
func (h *Hybrid) AddNoiseTo(dst []float64, t int) {
	if len(dst) != h.dim {
		panic(fmt.Sprintf("tree: destination dimension %d does not match overlay dimension %d", len(dst), h.dim))
	}
	if t < 0 {
		panic(fmt.Sprintf("tree: negative stream length %d", t))
	}
	epochs := bits.Len64(uint64(t)+1) - 1
	buf := randx.GetBuf(h.dim)
	snapshots := *buf
	for k := 0; k < epochs; k++ {
		h.cs = randx.NewCounterSource(h.noiseKey, snapshotNode(k))
		h.cs.AddNormal(snapshots, h.logSigma)
	}
	for k := range dst {
		dst[k] += snapshots[k]
	}
	randx.PutBuf(buf)
	if s := t - (1<<uint(epochs) - 1); s > 0 {
		sigma := treeSigma(h.sensitivity, numLevels(1<<uint(epochs)), h.privacy.Halve())
		addTreeNoise(&h.cs, dst, epochTreeKey(h.noiseKey, epochs), sigma, uint64(s))
	}
}

// hybridStateVersion is the Hybrid checkpoint format version. Version 3 is
// the overlay format (see treeStateVersion): the structural parameters and
// the noise key. Version-2 blobs (exact epoch sums and a nested epoch tree)
// are rejected.
const hybridStateVersion = 3

// AppendState implements Overlay for the Hybrid mechanism: the structural
// parameters and the noise key. Snapshot noise and every epoch tree's key are
// pure functions of the key.
func (h *Hybrid) AppendState(w *codec.Writer) {
	w.Grow(48)
	w.Version(hybridStateVersion)
	w.String("hybrid")
	w.Int(h.dim)
	w.F64(h.sensitivity)
	w.F64(h.logSigma)
	w.I64(h.noiseKey)
}

// UnmarshalState implements Overlay: it restores state captured by
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
	noiseKey := r.I64()
	if err := r.Finish(); err != nil {
		return err
	}
	h.noiseKey = noiseKey
	return nil
}

// NaiveSum is the baseline continual-sum mechanism that perturbs the running
// sum independently at every timestep, splitting the privacy budget across the
// T releases with advanced composition. Its error grows like √T (times √d),
// versus polylog(T) for the Tree Mechanism; the ablation benchmark
// BenchmarkAblationTreeVsNaiveSum quantifies the gap.
//
// The per-release noise is counter-keyed by the timestep: release t carries
// the noise vector FillNormalAt(noiseKey, t, ·, σ), regenerated whenever the
// release is read, so repeated reads of the same release observe the same
// value — exactly as the eager implementation's cached release did.
type NaiveSum struct {
	dim      int
	sigma    float64
	noiseKey int64
	t        int
	exact    []float64
	// cs is the PRF stream scratch of SumInto (see Tree.cs).
	cs randx.CounterSource
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
	copy(dst, n.exact)
	n.cs = randx.NewCounterSource(n.noiseKey, uint64(n.t))
	n.cs.AddNormal(dst, n.sigma)
}

// Interface conformance checks.
var (
	_ Overlay = (*Tree)(nil)
	_ Overlay = (*Hybrid)(nil)
)
