package codec

import (
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.Version(3)
	w.U64(42)
	w.I64(-17)
	w.Int(123456)
	w.Bool(true)
	w.Bool(false)
	w.F64(math.Pi)
	w.F64(math.Copysign(0, -1))
	w.F64s([]float64{1.5, -2.25, 0})
	w.Blob([]byte{9, 8, 7})
	w.String("priv-inc-reg1")

	r := NewReader(w.Bytes())
	r.Version(3)
	if got := r.U64(); got != 42 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.I64(); got != -17 {
		t.Fatalf("I64 = %d", got)
	}
	if got := r.Int(); got != 123456 {
		t.Fatalf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := r.F64(); got != math.Pi {
		t.Fatalf("F64 = %v", got)
	}
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatal("negative zero not preserved")
	}
	fs := r.F64s()
	if len(fs) != 3 || fs[0] != 1.5 || fs[1] != -2.25 || fs[2] != 0 {
		t.Fatalf("F64s = %v", fs)
	}
	b := r.Blob()
	if len(b) != 3 || b[0] != 9 {
		t.Fatalf("Blob = %v", b)
	}
	if got := r.String(); got != "priv-inc-reg1" {
		t.Fatalf("String = %q", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// section is an Appender with a nested section of its own.
type section struct {
	label string
	inner *section
}

func (s *section) AppendState(w *Writer) {
	w.String(s.label)
	if s.inner != nil {
		w.Nested(s.inner)
	}
	w.F64s([]float64{1, 2})
}

// TestNestedMatchesBlob pins Nested's in-place sections, nested two deep,
// byte for byte to Blob of standalone encodings.
func TestNestedMatchesBlob(t *testing.T) {
	inner := &section{label: "inner"}
	outer := &section{label: "outer", inner: inner}
	var want Writer
	want.Version(1)
	var mid Writer
	mid.String("outer")
	mid.Blob(Encode(inner))
	mid.F64s([]float64{1, 2})
	want.Blob(mid.Bytes())
	var got Writer
	got.Version(1)
	got.Nested(outer)
	if string(got.Bytes()) != string(want.Bytes()) {
		t.Fatalf("Nested wrote %x, Blob %x", got.Bytes(), want.Bytes())
	}
}

func TestTruncatedAndStickyErrors(t *testing.T) {
	var w Writer
	w.U64(1)
	r := NewReader(w.Bytes()[:4])
	_ = r.U64()
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Subsequent reads stay no-ops and the first error sticks.
	_ = r.F64s()
	_ = r.String()
	if r.Err() != ErrShortBuffer {
		t.Fatalf("sticky error = %v", r.Err())
	}
}

func TestVersionAndExpectMismatch(t *testing.T) {
	var w Writer
	w.Version(1)
	r := NewReader(w.Bytes())
	r.Version(2)
	if r.Err() == nil {
		t.Fatal("expected version mismatch")
	}

	var w2 Writer
	w2.Int(5)
	w2.String("dense")
	r2 := NewReader(w2.Bytes())
	r2.ExpectInt("dim", 6)
	if r2.Err() == nil {
		t.Fatal("expected dim mismatch")
	}
	r3 := NewReader(w2.Bytes())
	r3.ExpectInt("dim", 5)
	r3.ExpectString("backend", "srht")
	if r3.Err() == nil {
		t.Fatal("expected backend mismatch")
	}
}

func TestF64sIntoAndTrailing(t *testing.T) {
	var w Writer
	w.F64s([]float64{1, 2, 3})
	dst := make([]float64, 3)
	r := NewReader(w.Bytes())
	r.F64sInto(dst)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if dst[2] != 3 {
		t.Fatalf("F64sInto = %v", dst)
	}
	// Length mismatch is rejected.
	r = NewReader(w.Bytes())
	r.F64sInto(make([]float64, 2))
	if r.Err() == nil {
		t.Fatal("expected length mismatch")
	}
	// Trailing bytes are rejected by Finish.
	var w2 Writer
	w2.Int(1)
	w2.Int(2)
	r2 := NewReader(w2.Bytes())
	_ = r2.Int()
	if err := r2.Finish(); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

func TestCorruptLengthDoesNotAllocate(t *testing.T) {
	var w Writer
	w.Int(1 << 40) // absurd length prefix with no payload
	r := NewReader(w.Bytes())
	if out := r.F64s(); out != nil || r.Err() == nil {
		t.Fatal("corrupt length should fail cleanly")
	}
}
