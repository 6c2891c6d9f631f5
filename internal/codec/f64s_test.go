package codec

import (
	"bytes"
	"math"
	"testing"
)

// specialF64s are the values whose bits a float run must keep exactly: NaN
// payloads (quiet and signaling, both signs), signed zeros, subnormals,
// infinities and the extremes of the normal range.
func specialF64s() []float64 {
	return []float64{
		math.Float64frombits(0x7ff8000000000001), // quiet NaN with a payload
		math.Float64frombits(0x7ff0000000000abc), // signaling NaN
		math.Float64frombits(0xfff8dead0000beef), // negative NaN
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, math.Pi,
	}
}

// TestF64sLoopMatchesCopy holds the host's copy path to the portable byte
// loop a big-endian host runs, in both directions.
func TestF64sLoopMatchesCopy(t *testing.T) {
	vs := specialF64s()
	for n := 0; n <= len(vs); n++ {
		prefix := []byte{1, 2, 3}
		got := AppendF64s(bytes.Clone(prefix), vs[:n])
		want := appendF64sLoop(bytes.Clone(prefix), vs[:n])
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: AppendF64s %x, byte loop %x", n, got, want)
		}
		viaCopy, viaLoop := make([]float64, n), make([]float64, n)
		DecodeF64s(viaCopy, want[len(prefix):])
		decodeF64sLoop(viaLoop, want[len(prefix):])
		for i := range vs[:n] {
			if b := math.Float64bits(vs[i]); math.Float64bits(viaCopy[i]) != b || math.Float64bits(viaLoop[i]) != b {
				t.Fatalf("n=%d value %d: copy %x, loop %x, want %x", n, i,
					math.Float64bits(viaCopy[i]), math.Float64bits(viaLoop[i]), b)
			}
		}
	}
}

// TestF64sRoundTripBits runs the special values through Writer.F64s and
// both Reader decodes.
func TestF64sRoundTripBits(t *testing.T) {
	vs := specialF64s()
	var w Writer
	w.F64s(vs)
	w.F64s(vs)
	r := NewReader(w.Bytes())
	got := r.F64s()
	into := make([]float64, len(vs))
	r.F64sInto(into)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		b := math.Float64bits(v)
		if math.Float64bits(got[i]) != b || math.Float64bits(into[i]) != b {
			t.Fatalf("value %d: F64s %x, F64sInto %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(into[i]), b)
		}
	}
}

// TestDecodeF64sRejectsWrongLength pins the length contract.
func TestDecodeF64sRejectsWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DecodeF64s accepted 15 bytes for 2 values")
		}
	}()
	DecodeF64s(make([]float64, 2), make([]byte, 15))
}

// BenchmarkF64s encodes and decodes one 256-row batch of 32 covariates and
// 4 responses (the k=4 wire row region) by the host's copy path and by the
// portable byte loop.
func BenchmarkF64s(b *testing.B) {
	vs := make([]float64, 256*36)
	for i := range vs {
		vs[i] = float64(i) * 0.37
	}
	buf := AppendF64s(nil, vs)
	dst := make([]float64, len(vs))
	b.Run("encode/copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = AppendF64s(buf[:0], vs)
		}
	})
	b.Run("encode/loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = appendF64sLoop(buf[:0], vs)
		}
	})
	b.Run("decode/copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DecodeF64s(dst, buf)
		}
	})
	b.Run("decode/loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			decodeF64sLoop(dst, buf)
		}
	})
}
