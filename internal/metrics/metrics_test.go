package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestLogLogSlopeRecoversExponent(t *testing.T) {
	var xs, ys []float64
	for _, x := range []float64{1, 2, 4, 8, 16, 32} {
		xs = append(xs, x)
		ys = append(ys, 3*math.Pow(x, 0.5))
	}
	if got := LogLogSlope(xs, ys); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("slope = %v, want 0.5", got)
	}
	// Cubic growth.
	ys = ys[:0]
	for _, x := range xs {
		ys = append(ys, 0.1*x*x*x)
	}
	if got := LogLogSlope(xs, ys); math.Abs(got-3) > 1e-9 {
		t.Fatalf("slope = %v, want 3", got)
	}
	// Non-positive values are skipped; fewer than two usable points → NaN.
	if got := LogLogSlope([]float64{1, 2}, []float64{-1, 0}); !math.IsNaN(got) {
		t.Fatalf("expected NaN for unusable data, got %v", got)
	}
	if got := LogLogSlope([]float64{1, -2, 4}, []float64{2, 5, 8}); math.IsNaN(got) {
		t.Fatal("slope with one skipped point should still be defined")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", "1.5")
	tb.AddRow("2", "3.25")
	out := tb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") || !strings.Contains(out, "3.25") {
		t.Fatalf("table rendering missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	// Columns must be aligned: header and separator have equal length prefix.
	if len(lines[1]) == 0 || len(lines[2]) == 0 {
		t.Fatal("missing header or separator")
	}
}
