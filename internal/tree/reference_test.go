package tree

import (
	"fmt"
	"math/bits"

	"privreg/internal/codec"
	"privreg/internal/randx"
)

// This file keeps the mechanisms as they were before the noise overlay, as
// references: refTree holds one exact partial sum per level and folds the
// lower levels up at every carry; refHybrid holds the exact completed-epoch
// and current-epoch sums beside a refTree per epoch. Their releases are the
// node sums plus node noise. The overlay's release, an exact running sum plus
// the same node noise, must stay within float rounding of theirs
// (TestOverlayMatchesReference, FuzzOverlay).

// refTree is the Tree Mechanism with per-level exact partial sums.
type refTree struct {
	dim, maxT, levels int
	sigma             float64
	noiseKey          int64
	t                 int
	// alpha[j] is the in-progress exact partial sum at level j.
	alpha [][]float64
	noise []float64
}

func newRefTree(cfg Config, noiseKey int64) (*refTree, error) {
	ov, err := newWithKey(cfg, noiseKey)
	if err != nil {
		return nil, err
	}
	tr := &refTree{
		dim:      cfg.Dim,
		maxT:     cfg.MaxLen,
		levels:   ov.levels,
		sigma:    ov.sigma,
		noiseKey: noiseKey,
		alpha:    make([][]float64, ov.levels),
		noise:    make([]float64, cfg.Dim),
	}
	for j := range tr.alpha {
		tr.alpha[j] = make([]float64, cfg.Dim)
	}
	return tr, nil
}

// AddTo folds v into level lowestSetBit(t): a_i ← Σ_{j<i} a_j + υ_t, and
// zeroes the lower levels.
func (tr *refTree) AddTo(dst, v []float64) error {
	if len(v) != tr.dim {
		return fmt.Errorf("tree: element dimension %d does not match mechanism dimension %d", len(v), tr.dim)
	}
	if tr.t >= tr.maxT {
		return fmt.Errorf("tree: stream length exceeds configured maximum %d", tr.maxT)
	}
	tr.t++
	i := lowestSetBit(tr.t)
	ai := tr.alpha[i]
	for j := 0; j < i; j++ {
		for k := range ai {
			ai[k] += tr.alpha[j][k]
		}
	}
	for k := range ai {
		ai[k] += v[k]
	}
	for j := 0; j < i; j++ {
		clear(tr.alpha[j])
	}
	if dst != nil {
		tr.SumInto(dst)
	}
	return nil
}

// SumInto writes Σ_{j : Bin_j(t) ≠ 0} (a_j + noise_j).
func (tr *refTree) SumInto(dst []float64) {
	clear(dst)
	for j := 0; j < tr.levels; j++ {
		if tr.t&(1<<uint(j)) == 0 {
			continue
		}
		randx.FillNormalAt(tr.noiseKey, nodeIndex(j, uint64(tr.t)>>uint(j)), tr.noise, tr.sigma)
		for k := range dst {
			dst[k] += tr.alpha[j][k] + tr.noise[k]
		}
	}
}

// refHybrid is the Hybrid Mechanism with exact epoch sums and a refTree per
// epoch.
type refHybrid struct {
	h              *Hybrid // construction parameters and key
	t, epochs      int
	completedExact []float64
	epochExact     []float64
	noiseSum       []float64
	epochTree      *refTree
}

func newRefHybrid(h *Hybrid) *refHybrid {
	r := &refHybrid{
		h:              h,
		completedExact: make([]float64, h.dim),
		epochExact:     make([]float64, h.dim),
		noiseSum:       make([]float64, h.dim),
	}
	r.startEpoch()
	return r
}

func (r *refHybrid) startEpoch() {
	et, err := newRefTree(Config{
		Dim:         r.h.dim,
		MaxLen:      1 << uint(r.epochs),
		Sensitivity: r.h.sensitivity,
		Privacy:     r.h.privacy.Halve(),
	}, epochTreeKey(r.h.noiseKey, r.epochs))
	if err != nil {
		panic(err)
	}
	r.epochTree = et
}

// AddTo adds v to the epoch's exact sum and tree, and at an epoch boundary
// folds the epoch sum into the completed sum and adds its snapshot noise.
func (r *refHybrid) AddTo(dst, v []float64) error {
	if len(v) != r.h.dim {
		return fmt.Errorf("tree: element dimension %d does not match mechanism dimension %d", len(v), r.h.dim)
	}
	r.t++
	for k := range r.epochExact {
		r.epochExact[k] += v[k]
	}
	if err := r.epochTree.AddTo(nil, v); err != nil {
		return err
	}
	if r.epochTree.t == r.epochTree.maxT {
		for k := range r.completedExact {
			r.completedExact[k] += r.epochExact[k]
		}
		clear(r.epochExact)
		buf := make([]float64, r.h.dim)
		randx.FillNormalAt(r.h.noiseKey, snapshotNode(r.epochs), buf, r.h.logSigma)
		for k := range r.noiseSum {
			r.noiseSum[k] += buf[k]
		}
		r.epochs++
		r.startEpoch()
	}
	if dst != nil {
		r.SumInto(dst)
	}
	return nil
}

// SumInto writes completed exact + snapshot noise + the epoch tree's sum.
func (r *refHybrid) SumInto(dst []float64) {
	r.epochTree.SumInto(dst)
	for k := range dst {
		dst[k] = r.completedExact[k] + r.noiseSum[k] + dst[k]
	}
}

// lowestSetBit returns the index of the lowest set bit of t. The degenerate
// input t <= 0 (no set bit) maps to level 0.
func lowestSetBit(t int) int {
	if t <= 0 {
		return 0
	}
	return bits.TrailingZeros(uint(t))
}

// sumStream is a continual-sum stream kept the way the regression core keeps
// one: an exact running sum and a count, released through a noise overlay.
// maxT bounds a fixed-horizon stream (0: none).
type sumStream struct {
	ov   Overlay
	maxT int
	t    int
	s    []float64
}

func (st *sumStream) AddTo(dst, v []float64) error {
	if len(v) != len(st.s) {
		return fmt.Errorf("tree: element dimension %d does not match stream dimension %d", len(v), len(st.s))
	}
	if dst != nil && len(dst) != len(st.s) {
		return fmt.Errorf("tree: destination dimension %d does not match stream dimension %d", len(dst), len(st.s))
	}
	if st.maxT > 0 && st.t >= st.maxT {
		return fmt.Errorf("tree: stream length exceeds configured maximum %d", st.maxT)
	}
	st.t++
	for k := range st.s {
		st.s[k] += v[k]
	}
	if dst != nil {
		st.SumInto(dst)
	}
	return nil
}

// SumInto writes S_t + N_t.
func (st *sumStream) SumInto(dst []float64) {
	dst = dst[:len(st.s)]
	copy(dst, st.s)
	st.ov.AddNoiseTo(dst, st.t)
}

func (st *sumStream) Len() int { return st.t }

// AppendState writes the count, the exact sum and the overlay's section.
func (st *sumStream) AppendState(w *codec.Writer) {
	w.Int(st.t)
	w.F64s(st.s)
	w.Nested(st.ov)
}

func (st *sumStream) UnmarshalState(data []byte) error {
	r := codec.NewReader(data)
	t := r.Int()
	r.F64sInto(st.s)
	blob := r.Blob()
	if err := r.Finish(); err != nil {
		return err
	}
	if t < 0 || (st.maxT > 0 && t > st.maxT) {
		return fmt.Errorf("tree: checkpoint stream position %d outside [0, %d]", t, st.maxT)
	}
	if err := st.ov.UnmarshalState(blob); err != nil {
		return err
	}
	st.t = t
	return nil
}

// treeStream returns a fixed-horizon stream over a Tree overlay.
func treeStream(cfg Config, src *randx.Source) (*sumStream, error) {
	ov, err := New(cfg, src)
	if err != nil {
		return nil, err
	}
	return &sumStream{ov: ov, maxT: cfg.MaxLen, s: make([]float64, cfg.Dim)}, nil
}

// hybridStream returns an unbounded stream over a Hybrid overlay.
func hybridStream(h *Hybrid) *sumStream {
	return &sumStream{ov: h, s: make([]float64, h.dim)}
}
