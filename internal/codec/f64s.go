package codec

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// This file holds the one encoder/decoder pair for runs of float64s, shared
// by the checkpoint codec and the wire protocol: each value travels as its
// IEEE-754 bits in little-endian byte order. On a little-endian host that is
// exactly a float64 slice's memory, so a run is one copy of its bytes; a
// big-endian host falls back to the per-element byte loop.

// hostLittleEndian reports whether the host stores a float64 in the
// encoding's byte order.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// AppendF64s appends the bit patterns of vs to dst, 8 little-endian bytes
// each, with no length prefix.
func AppendF64s(dst []byte, vs []float64) []byte {
	if hostLittleEndian {
		return append(dst, f64Bytes(vs)...)
	}
	return appendF64sLoop(dst, vs)
}

// DecodeF64s fills dst from the bit patterns in src, which must hold exactly
// 8·len(dst) bytes written by AppendF64s. Every bit is kept: NaN payloads,
// signed zeros, subnormals and infinities round-trip exactly.
func DecodeF64s(dst []float64, src []byte) {
	if len(src) != 8*len(dst) {
		panic("codec: DecodeF64s source holds the wrong number of bytes")
	}
	if hostLittleEndian {
		copy(f64Bytes(dst), src)
		return
	}
	decodeF64sLoop(dst, src)
}

// f64Bytes views vs's memory as bytes.
func f64Bytes(vs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 8*len(vs))
}

// appendF64sLoop is AppendF64s for any host byte order.
func appendF64sLoop(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeF64sLoop is DecodeF64s for any host byte order.
func decodeF64sLoop(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}
