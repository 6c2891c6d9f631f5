package erm

import (
	"errors"

	"privreg/internal/codec"
	"privreg/internal/vec"
)

// MultiStats maintains the sufficient statistics of k quadratic empirical
// risks that share one feature stream (the PRIMO setting: one X, k outcome
// vectors). The feature-side state — the second-moment matrix A = Σ x xᵀ
// (packed symmetric) and the count n — is held once; each outcome i adds only
// its cross-moment B_i = Σ y_i·x and response energy Σ y_i². Folding a row
// (x, y_1..y_k) is one O(d²) rank-one update plus k O(d) vector folds, and
// outcome i's empirical gradient at any θ is 2·scale·(Aθ − B_i) + n·ridge·θ,
// computed in O(d²) independent of n. The single-outcome mechanisms are its
// k = 1 users.
type MultiStats struct {
	a   *vec.SymMatrix
	n   int
	bs  []vec.Vector
	yys []float64
}

// NewMultiStats returns empty statistics for dimension d and k outcomes.
func NewMultiStats(d, k int) *MultiStats {
	if k < 1 {
		panic("erm: MultiStats needs at least one outcome")
	}
	m := &MultiStats{
		a:   vec.NewSymMatrix(d),
		bs:  make([]vec.Vector, k),
		yys: make([]float64, k),
	}
	for i := range m.bs {
		m.bs[i] = vec.NewVector(d)
	}
	return m
}

// Dim returns the covariate dimension.
func (m *MultiStats) Dim() int { return m.a.Dim() }

// Outcomes returns k.
func (m *MultiStats) Outcomes() int { return len(m.bs) }

// Len returns the number of folded rows.
func (m *MultiStats) Len() int { return m.n }

// Gram returns the shared second-moment matrix A = Σ x xᵀ. Callers must treat
// it as read-only.
func (m *MultiStats) Gram() *vec.SymMatrix { return m.a }

// Moment returns outcome i's cross-moment B_i = Σ y_i·x. Callers must treat it
// as read-only.
func (m *MultiStats) Moment(i int) vec.Vector { return m.bs[i] }

// Add folds one row into the statistics: the shared matrix once, then each
// outcome's vector moments in index order. len(ys) must equal Outcomes().
func (m *MultiStats) Add(x vec.Vector, ys []float64) {
	if len(x) != m.a.Dim() {
		panic("erm: MultiStats dimension mismatch")
	}
	if len(ys) != len(m.bs) {
		panic("erm: MultiStats outcome count mismatch")
	}
	m.n++
	m.a.AddScaledOuter(1, x)
	for i, y := range ys {
		vec.Axpy(m.bs[i], y, x)
		m.yys[i] += y * y
	}
}

// GradientInto writes outcome i's empirical gradient Σ_j ∇ℓ(θ; z_j) =
// 2·scale·(Aθ − B_i) + n·ridge·θ into dst. dst must not alias theta. The
// operation order is fixed, so the result is bit-deterministic.
func (m *MultiStats) GradientInto(dst, theta vec.Vector, i int, scale, ridge float64) {
	m.a.MulVecTo(dst, theta)
	b := m.bs[i]
	nridge := float64(m.n) * ridge
	for j := range dst {
		dst[j] = 2*scale*(dst[j]-b[j]) + nridge*theta[j]
	}
}

// Risk returns outcome i's empirical squared-loss risk Σ_j (y_ij − ⟨x_j, θ⟩)²
// = Σy² − 2⟨B_i, θ⟩ + θᵀAθ, computed in O(d²).
func (m *MultiStats) Risk(theta vec.Vector, i int) float64 {
	q := vec.NewVector(len(theta))
	m.a.MulVecTo(q, theta)
	return m.yys[i] - 2*vec.Dot(m.bs[i], theta) + vec.Dot(theta, q)
}

// CopyFrom copies src into m. Shapes must match.
func (m *MultiStats) CopyFrom(src *MultiStats) {
	if m.a.Dim() != src.a.Dim() || len(m.bs) != len(src.bs) {
		panic("erm: MultiStats CopyFrom shape mismatch")
	}
	m.a.CopyFrom(src.a)
	for i := range m.bs {
		m.bs[i].CopyFrom(src.bs[i])
		m.yys[i] = src.yys[i]
	}
	m.n = src.n
}

// Bytes returns the retained memory of the statistics: one packed triangle
// plus k cross-moment vectors (8 bytes per float64).
func (m *MultiStats) Bytes() int {
	return 8 * (len(m.a.Data()) + len(m.bs)*m.a.Dim())
}

// multiStatsVersion is the MultiStats checkpoint format version.
const multiStatsVersion = 1

// AppendState appends the statistics to w: the shared feature-side state
// once, then the k per-outcome moments. The section is O(d² + k·d)
// regardless of how many rows were folded.
func (m *MultiStats) AppendState(w *codec.Writer) {
	w.Grow(8*(len(m.a.Data())+len(m.bs)*(m.Dim()+2)) + 33)
	w.Version(multiStatsVersion)
	w.Int(m.Dim())
	w.Int(len(m.bs))
	w.Int(m.n)
	w.F64s(m.a.Data())
	for i := range m.bs {
		w.F64s(m.bs[i])
		w.F64(m.yys[i])
	}
}

// UnmarshalState restores statistics captured by AppendState into a receiver
// of the same shape.
func (m *MultiStats) UnmarshalState(data []byte) error {
	r := codec.NewReader(data)
	r.Version(multiStatsVersion)
	r.ExpectInt("dimension", m.Dim())
	r.ExpectInt("outcome count", len(m.bs))
	n := r.Int()
	r.F64sInto(m.a.Data())
	for i := range m.bs {
		r.F64sInto(m.bs[i])
		m.yys[i] = r.F64()
	}
	if err := r.Finish(); err != nil {
		return err
	}
	if n < 0 {
		return errors.New("erm: corrupt checkpoint (negative observation count)")
	}
	m.n = n
	return nil
}
