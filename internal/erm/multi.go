package erm

import (
	"errors"

	"privreg/internal/codec"
	"privreg/internal/randx"
	"privreg/internal/vec"
)

// MultiStats maintains the sufficient statistics of k quadratic empirical
// risks that share one feature stream (the PRIMO setting: one X, k outcome
// vectors). The feature-side state — the second-moment matrix A = Σ x xᵀ
// (packed symmetric) and the count n — is held once; each outcome i adds only
// its cross-moment B_i = Σ y_i·x and response energy Σ y_i². Rows fold in
// through AddRows, four at a time into each entry (O(d²) for the shared
// matrix plus k O(d) vector folds per row), with every entry bit-identical
// to folding the rows one by one as rank-one updates; outcome i's empirical
// gradient at any θ is 2·scale·(Aθ − B_i) + n·ridge·θ, computed in O(d²)
// independent of n. The single-outcome mechanisms are its k = 1 users.
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

// AddRows folds a batch of rows into the statistics: xs holds rows×d
// covariates and ys rows×k responses, both row-major. Every statistic ends
// bit-identical to folding the rows one at a time in order, each as the
// rank-one update A += x xᵀ and, per outcome, B_i += y_i·x and Σy² += y_i²:
// four rows at a time each entry takes its four terms in row order
// (vec.SymMatrix.AddOuters for A, the same order for B_i and Σy²), so how a
// stream's rows are split into calls never changes a bit.
func (m *MultiStats) AddRows(xs, ys []float64) {
	d, k := m.a.Dim(), len(m.bs)
	rows := len(ys) / k
	if len(ys) != rows*k {
		panic("erm: MultiStats outcome count mismatch")
	}
	if len(xs) != rows*d {
		panic("erm: MultiStats dimension mismatch")
	}
	m.n += rows
	m.a.AddOuters(xs)
	for i, b := range m.bs {
		yy := m.yys[i]
		r := 0
		for ; r+4 <= rows; r += 4 {
			y0, y1, y2, y3 := ys[r*k+i], ys[(r+1)*k+i], ys[(r+2)*k+i], ys[(r+3)*k+i]
			x0, x1, x2, x3 := xs[r*d:(r+1)*d], xs[(r+1)*d:(r+2)*d], xs[(r+2)*d:(r+3)*d], xs[(r+3)*d:(r+4)*d]
			x0, x1, x2, x3 = x0[:len(b)], x1[:len(b)], x2[:len(b)], x3[:len(b)]
			for j := range b {
				v := b[j] + y0*x0[j]
				v += y1 * x1[j]
				v += y2 * x2[j]
				v += y3 * x3[j]
				b[j] = v
			}
			yy += y0 * y0
			yy += y1 * y1
			yy += y2 * y2
			yy += y3 * y3
		}
		for ; r < rows; r++ {
			y := ys[r*k+i]
			vec.Axpy(b, y, xs[r*d:(r+1)*d])
			yy += y * y
		}
		m.yys[i] = yy
	}
}

// stageRows is how many rows a Stage gathers before folding them.
const stageRows = 4

// Stage gathers rows for AddRows in a buffer borrowed from randx's scratch
// pool for the length of one ingest call, so a stream keeps no staging
// memory between calls. Next hands out the next row's slots; the staged
// rows fold when the stage is full, on Flush, and on Release, which returns
// the buffer.
type Stage struct {
	m      *MultiStats
	buf    *[]float64
	xs, ys []float64
	n      int
}

// Stage borrows a four-row stage for m. The caller must Release it.
func (m *MultiStats) Stage() Stage {
	d, k := m.a.Dim(), len(m.bs)
	buf := randx.GetBuf(stageRows * (d + k))
	return Stage{m: m, buf: buf, xs: (*buf)[:stageRows*d], ys: (*buf)[stageRows*d:]}
}

// Next returns the covariate and response slots of the next row, which the
// caller fills completely before the next call. When the stage is full its
// rows fold first.
func (s *Stage) Next() (x vec.Vector, ys []float64) {
	if s.n == stageRows {
		s.Flush()
	}
	d, k := len(s.xs)/stageRows, len(s.ys)/stageRows
	n := s.n
	s.n++
	return s.xs[n*d : (n+1)*d], s.ys[n*k : (n+1)*k]
}

// Flush folds the staged rows into the statistics.
func (s *Stage) Flush() {
	d, k := len(s.xs)/stageRows, len(s.ys)/stageRows
	s.m.AddRows(s.xs[:s.n*d], s.ys[:s.n*k])
	s.n = 0
}

// Release flushes the stage and returns its buffer; the stage is unusable
// afterwards.
func (s *Stage) Release() {
	s.Flush()
	randx.PutBuf(s.buf)
	s.buf, s.xs, s.ys = nil, nil, nil
}

// GradientInto writes outcome i's empirical gradient Σ_j ∇ℓ(θ; z_j) =
// 2·scale·(Aθ − B_i) + n·ridge·θ into dst. dst must not alias theta. The
// operation order is fixed, so the result is bit-deterministic.
func (m *MultiStats) GradientInto(dst, theta vec.Vector, i int, scale, ridge float64) {
	m.a.MulVecTo(dst, theta)
	m.gradientFrom(dst, theta, i, scale, ridge)
}

// gradientFrom turns dst = Aθ into outcome i's gradient in place.
func (m *MultiStats) gradientFrom(dst, theta vec.Vector, i int, scale, ridge float64) {
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
