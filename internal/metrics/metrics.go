// Package metrics provides the evaluation tooling of the benchmark harness:
// excess empirical-risk computation against exact minimizers, per-timestep risk
// curves, aggregation over repeated trials, log–log scaling-exponent fits used
// to check the *shape* of the paper's bounds, and the plain-text table
// rendering privreg-bench prints.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"privreg/internal/loss"
	"privreg/internal/vec"
)

// ExcessRisk returns J(θ; data) - J(θ̂; data) for an explicit candidate and the
// exact minimizer θ̂ supplied by the caller. Negative values (possible when the
// "exact" minimizer is itself approximate) are clamped to zero.
func ExcessRisk(f loss.Function, data []loss.Point, theta, exact vec.Vector) float64 {
	r := loss.Empirical(f, theta, data) - loss.Empirical(f, exact, data)
	if r < 0 {
		return 0
	}
	return r
}

// Series is a sequence of (x, y) measurements, e.g. excess risk as a function
// of the stream length or the dimension.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Append adds a point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points in the series.
func (s *Series) Len() int { return len(s.X) }

// LogLogSlope fits a least-squares line to (log x, log y) and returns its slope,
// the empirical scaling exponent. Points with non-positive coordinates are
// skipped; at least two usable points are required, otherwise NaN is returned.
// This is the primary tool for checking that measured excess risk grows like
// d^{1/2}, T^{1/3}, etc., as the paper's bounds predict.
func LogLogSlope(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if i < len(ys) && xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return math.NaN()
	}
	return slope(lx, ly)
}

func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// Summary holds basic order statistics of repeated trials.
type Summary struct {
	Mean, Std, Median, Min, Max float64
	N                           int
}

// Summarize computes a Summary over the values.
func Summarize(values []float64) Summary {
	n := len(values)
	if n == 0 {
		return Summary{}
	}
	var sum float64
	mn, mx := values[0], values[0]
	for _, v := range values {
		sum += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range values {
		ss += (v - mean) * (v - mean)
	}
	std := 0.0
	if n > 1 {
		std = math.Sqrt(ss / float64(n-1))
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	med := sorted[n/2]
	if n%2 == 0 {
		med = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return Summary{Mean: mean, Std: std, Median: med, Min: mn, Max: mx, N: n}
}

// Table is a simple fixed-column text table used by cmd/privreg-bench to print
// the reproduction of each Table-1 row.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable returns an empty table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddFloatRow appends a row whose cells are formatted with %.4g.
func (t *Table) AddFloatRow(cells ...float64) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%.4g", c)
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// RiskCurve records the per-timestep excess risk of a mechanism over a run.
type RiskCurve struct {
	Timesteps  []int
	ExcessRisk []float64
}

// Append adds a checkpoint to the curve.
func (c *RiskCurve) Append(t int, excess float64) {
	c.Timesteps = append(c.Timesteps, t)
	c.ExcessRisk = append(c.ExcessRisk, excess)
}

// Max returns the maximum excess risk over the curve (the quantity Definition 1
// bounds uniformly over timesteps). Zero is returned for an empty curve.
func (c *RiskCurve) Max() float64 {
	var m float64
	for _, v := range c.ExcessRisk {
		if v > m {
			m = v
		}
	}
	return m
}

// Final returns the excess risk at the last checkpoint, or zero when empty.
func (c *RiskCurve) Final() float64 {
	if len(c.ExcessRisk) == 0 {
		return 0
	}
	return c.ExcessRisk[len(c.ExcessRisk)-1]
}
