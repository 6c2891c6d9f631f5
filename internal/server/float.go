package server

import (
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// This file converts a decimal man·10^exp10 to the nearest float64, the
// second half of the observe scanner's number parse (jsonScan.number reads
// the digits, jsonScan.float picks the path). A correctly rounded conversion has exactly one answer, so the two
// fast paths here give strconv.ParseFloat's bits whenever they answer at all:
// Clinger's exact path for small mantissas and exponents, then Eisel–Lemire
// (Lemire, "Number parsing at a gigabyte per second", Software: Practice and
// Experience 51(8), 2021) over 128-bit truncated powers of ten, following the
// Go standard library's eiselLemire64. Each reports !ok where it cannot be
// sure, and the caller falls back to strconv.

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// exactFloat is Clinger's fast path: when man fits the 53-bit significand
// and 10^|exp10| is exact, one correctly rounded multiply or divide is the
// correctly rounded result.
func exactFloat(man uint64, exp10 int, neg bool) (float64, bool) {
	if man>>53 != 0 {
		return 0, false
	}
	f := float64(man)
	if neg {
		f = -f
	}
	switch {
	case exp10 == 0:
		return f, true
	case exp10 > 0 && exp10 <= 15+22:
		// Digits beyond 10^22 move into the mantissa while it stays
		// exact (below 10^15 < 2^53).
		if exp10 > 22 {
			f *= exactPow10[exp10-22]
			exp10 = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * exactPow10[exp10], true
	case exp10 < 0 && exp10 >= -22:
		return f / exactPow10[-exp10], true
	}
	return 0, false
}

// The power-of-ten table covers 10^pow10Min … 10^pow10Max, both inclusive,
// the range of the Go standard library's table: it includes every exponent
// at which a nonzero mantissa of up to 19 digits can give a normal float64.
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10s holds the 128-bit significand of each power of ten 10^q, rounded
// down, as {low word, high word} at index q-pow10Min; the binary exponent is
// implied by 217706·q/2^16 ≈ q·log2(10).
type pow10s [pow10Max - pow10Min + 1][2]uint64

// pow10Table builds the table exactly with math/big on the first conversion
// that needs it (about 1 ms), not at package init, so a binary that imports
// the server but parses no observe body never pays for it.
var pow10Table = sync.OnceValue(func() *pow10s {
	t := new(pow10s)
	ten := big.NewInt(10)
	for q := pow10Min; q <= pow10Max; q++ {
		z := new(big.Int)
		if q >= 0 {
			z.Exp(ten, big.NewInt(int64(q)), nil)
		} else {
			// floor(2^s / 10^-q) with s large enough that the quotient
			// keeps at least 128 bits; truncating it further is still
			// the floor of the exact value.
			d := new(big.Int).Exp(ten, big.NewInt(int64(-q)), nil)
			z.Lsh(big.NewInt(1), uint(d.BitLen()+128))
			z.Quo(z, d)
		}
		if n := z.BitLen(); n > 128 {
			z.Rsh(z, uint(n-128))
		} else {
			z.Lsh(z, uint(128-n))
		}
		lo := new(big.Int).And(z, new(big.Int).SetUint64(math.MaxUint64))
		t[q-pow10Min] = [2]uint64{lo.Uint64(), z.Rsh(z, 64).Uint64()}
	}
	return t
})

// eiselLemire returns the float64 nearest man·10^exp10 for a nonzero man, or
// !ok when exp10 is outside the table, when the 128-bit product cannot
// decide the rounding (a halfway case or a truncation-error ambiguity), or
// when the result would be subnormal, infinite or NaN.
func eiselLemire(pow *pow10s, man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	// Normalize man so its top bit is set.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	retExp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	// The top 64 bits of man times the power's high word, widened with its
	// low word when the product's low bits could carry into the result.
	p := &pow[exp10-pow10Min]
	xHi, xLo := bits.Mul64(man, p[1])
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, p[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Keep 54 bits: the 53 of the result and one for rounding.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// An exact halfway point cannot be rounded from a truncated product.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// Round to 53 bits, half up: the only ties that would round the wrong
	// way were excluded above. A carry out renormalizes.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// retExp2 of 0 (or wrapped below it) is subnormal, 0x7FF or more is
	// infinite: both are left to the fallback.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
