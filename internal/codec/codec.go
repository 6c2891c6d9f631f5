// Package codec implements the compact, versioned binary encoding used by the
// checkpoint/restore machinery: every estimator, continual-sum mechanism, and
// randomness source serializes its mutable state through the Writer/Reader
// pair defined here, so a stream can be checkpointed at an arbitrary timestep
// and resumed — on the same or another process — bit-identically to an
// uninterrupted run.
//
// The format is deliberately simple: fixed-width little-endian scalars,
// length-prefixed slices and strings, and an explicit version byte at the head
// of every component section. Readers accumulate the first error and turn all
// subsequent reads into no-ops, so decoding code can be written straight-line
// and checked once at the end with Err.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Writer builds a binary checkpoint blob. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// Grow is a capacity hint: it makes room for n more bytes, so a caller that
// knows the encoded size up front pays one allocation instead of the
// doubling growth, and copies, of plain appends.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Version writes a component version byte.
func (w *Writer) Version(v uint8) { w.buf = append(w.buf, v) }

// U64 writes a fixed-width unsigned integer.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 writes a fixed-width signed integer.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as a signed 64-bit value.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes a boolean as a single byte.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// F64 writes a float64 by its IEEE-754 bits, preserving the exact value
// (including NaN payloads and signed zeros) so restored state is bit-identical.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// F64s writes a length-prefixed []float64.
func (w *Writer) F64s(v []float64) {
	w.Int(len(v))
	w.buf = AppendF64s(w.buf, v)
}

// Blob writes a length-prefixed byte slice (used to nest one component's
// encoding inside another's).
func (w *Writer) Blob(b []byte) {
	w.Int(len(b))
	w.buf = append(w.buf, b...)
}

// Appender is a component that appends its checkpoint section to a Writer.
type Appender interface {
	AppendState(w *Writer)
}

// Encode returns a's section as a standalone blob.
func Encode(a Appender) []byte {
	var w Writer
	a.AppendState(&w)
	return w.Bytes()
}

// Nested writes a's section as a nested blob in place: it reserves the
// length prefix Blob would write, lets a append straight into w and
// back-patches the prefix. Nesting one component's encoding inside another's
// then copies nothing, and the bytes are identical to Blob of a standalone
// encoding of the section.
func (w *Writer) Nested(a Appender) {
	w.U64(0)
	mark := len(w.buf)
	a.AppendState(w)
	binary.LittleEndian.PutUint64(w.buf[mark-8:mark], uint64(len(w.buf)-mark))
}

// String writes a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.Int(len(s))
	w.buf = append(w.buf, s...)
}

// ErrShortBuffer is returned when a Reader runs past the end of its input.
var ErrShortBuffer = errors.New("codec: truncated input")

// maxSliceLen guards length prefixes so a corrupt blob cannot trigger a huge
// allocation before the mismatch is detected.
const maxSliceLen = 1 << 30

// Reader decodes a blob produced by Writer. The first error sticks: subsequent
// reads return zero values, and Err reports what went wrong.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over the given blob.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records a decoding error discovered by the caller (e.g. a semantic
// range check); like internal errors it sticks and turns subsequent reads into
// no-ops.
func (r *Reader) Fail(err error) { r.fail(err) }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail(ErrShortBuffer)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Version reads a component version byte and checks it against want.
func (r *Reader) Version(want uint8) {
	b := r.take(1)
	if b == nil {
		return
	}
	if b[0] != want {
		r.fail(fmt.Errorf("codec: unsupported version %d (want %d)", b[0], want))
	}
}

// U64 reads a fixed-width unsigned integer.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a fixed-width signed integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a boolean.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	return b[0] != 0
}

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// F64s reads a length-prefixed []float64.
func (r *Reader) F64s() []float64 {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	if n < 0 || n > maxSliceLen || r.off+8*n > len(r.buf) {
		r.fail(ErrShortBuffer)
		return nil
	}
	out := make([]float64, n)
	DecodeF64s(out, r.take(8*n))
	return out
}

// F64sInto reads a length-prefixed []float64 into dst, requiring the encoded
// length to match len(dst) exactly. It is the allocation-free counterpart of
// F64s for fixed-shape state buffers.
func (r *Reader) F64sInto(dst []float64) {
	n := r.Int()
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.fail(fmt.Errorf("codec: encoded slice length %d does not match expected %d", n, len(dst)))
		return
	}
	if b := r.take(8 * n); b != nil {
		DecodeF64s(dst, b)
	}
}

// Blob reads a length-prefixed byte slice.
func (r *Reader) Blob() []byte {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	if n < 0 || n > maxSliceLen {
		r.fail(ErrShortBuffer)
		return nil
	}
	return r.take(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Blob()) }

// ExpectInt reads an int and checks it equals want; the label names the field
// in the error message. Used to verify structural parameters (dimensions,
// horizons) that must match between the checkpoint and the restoring instance.
func (r *Reader) ExpectInt(label string, want int) {
	got := r.Int()
	if r.err == nil && got != want {
		r.fail(fmt.Errorf("codec: %s mismatch: checkpoint has %d, restoring instance has %d", label, got, want))
	}
}

// ExpectString reads a string and checks it equals want.
func (r *Reader) ExpectString(label, want string) {
	got := r.String()
	if r.err == nil && got != want {
		r.fail(fmt.Errorf("codec: %s mismatch: checkpoint has %q, restoring instance has %q", label, got, want))
	}
}

// Finish returns the first decoding error, or an error when unread bytes
// remain (a sign the blob and the decoder disagree about the format).
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("codec: %d trailing bytes after decode", r.Remaining())
	}
	return nil
}
