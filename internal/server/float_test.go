package server

import (
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// jsonNumber is the JSON number grammar, the tokens the observe scanner must
// accept as a whole.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// checkNumber holds the scanner's number conversion to strconv.ParseFloat on
// one token: a token in the JSON grammar, after the leading whitespace the
// scanner skips, converts to ParseFloat's bits and is rejected exactly when
// ParseFloat reports a range error; any other token is rejected or, with an
// accepted prefix, stops short of its end.
func checkNumber(t *testing.T, text string) {
	t.Helper()
	p := jsonScan{b: []byte(text)}
	got, err := p.float()
	whole := err == nil && p.i == len(text)
	tok := strings.TrimLeft(text, " \t\r\n")
	if !jsonNumber.MatchString(tok) {
		if whole {
			t.Errorf("%q is not a JSON number, scanner reads it as %v", text, got)
		}
		return
	}
	want, wantErr := strconv.ParseFloat(tok, 64)
	switch {
	case wantErr != nil && err == nil:
		t.Errorf("%q: scanner reads %v, ParseFloat fails (%v)", tok, got, wantErr)
	case wantErr == nil && !whole:
		t.Errorf("%q: scanner fails (%v, stopped at byte %d), ParseFloat reads %v", tok, err, p.i, want)
	case wantErr == nil && math.Float64bits(got) != math.Float64bits(want):
		t.Errorf("%q: scanner reads %v (%#016x), ParseFloat %v (%#016x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// numberCases cover each conversion path: the exact path, Eisel–Lemire, its
// halfway exit, the strconv fallback for long mantissas and out-of-table
// exponents, the subnormal and overflow boundaries, and malformed tokens.
var numberCases = []string{
	"0", "-0", "0.0", "-0.0e5", "0e99999999999", "1", "-1", "12.25", "1E+2", "0.05e1",
	"9007199254740992", "9007199254740993", "9007199254740995", "18446744073709551615",
	"1e22", "1e23", "123456789012345e22", "1e-22", "1e-23",
	"0.1", "0.3", "3.141592653589793", "0.123456789012345678", "1234567890123456789",
	"12345678901234567890", "1234567890123456789012345", "1.234567890123456789012345e-10",
	"0.0000000000000000000000000000001234", "2.2250738585072011e-308", "2.2250738585072014e-308",
	"4.9e-324", "5e-324", "2.4e-324", "2.5e-324", "2.4703282292062328e-324", "1e-400",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1e308", "1e309",
	"1e999999999999999999", "-1e999999999999999999", "1e-999999999999999999",
	"1e99999999999999999999999999", "1e-99999999999999999999999999", "1e18446744073709551621",
	"7.2057594037927933e16", "1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126",
	"00", "01", "-", "+1", ".5", "1.", "1e", "1e+", "-e1", "0x10", "1_0", "Inf", "NaN", "1.5.5", "1ee5",
	"1234567:9", "0.1234567?", "12345678/", " 0", "\t\r\n-1.5e3", "\v1", "\u00a01",
}

func TestParseNumber(t *testing.T) {
	for _, tok := range numberCases {
		checkNumber(t, tok)
	}
}

// TestParseNumberRandom runs checkNumber over random tokens: FormatFloat
// output of random bit patterns in 'g', 'e' and 'f' at varied precisions
// (which rounds to decimals of every length, including halfway cases in the
// shortest form), and random digit strings with random exponents.
func TestParseNumberRandom(t *testing.T) {
	r := rand.New(rand.NewSource(2801))
	n := 100_000
	if testing.Short() {
		n = 20_000
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		v := math.Float64frombits(r.Uint64())
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			checkNumber(t, strconv.FormatFloat(v, 'g', -1, 64))
			checkNumber(t, strconv.FormatFloat(v, 'e', r.Intn(25)-1, 64))
			if math.Abs(v) < 1e30 {
				checkNumber(t, strconv.FormatFloat(v, 'f', r.Intn(30)-1, 64))
			}
		}
		sb.Reset()
		if r.Intn(2) == 0 {
			sb.WriteByte('-')
		}
		sb.WriteByte(byte('1' + r.Intn(9)))
		for k := r.Intn(25); k > 0; k-- {
			sb.WriteByte(byte('0' + r.Intn(10)))
		}
		if r.Intn(2) == 0 {
			sb.WriteByte('.')
			for k := 1 + r.Intn(25); k > 0; k-- {
				sb.WriteByte(byte('0' + r.Intn(10)))
			}
		}
		sb.WriteString("e" + strconv.Itoa(r.Intn(700)-350))
		checkNumber(t, sb.String())
		if t.Failed() {
			return
		}
	}
}

// FuzzParseNumber holds the scanner's number conversion to
// strconv.ParseFloat on fuzzed tokens and on FormatFloat output of fuzzed
// bits in 'g', 'e' and 'f' at a fuzzed precision.
func FuzzParseNumber(f *testing.F) {
	for i, tok := range numberCases {
		f.Add(tok, uint64(i)*0x9e3779b97f4a7c15, int8(i%20-1))
	}
	f.Fuzz(func(t *testing.T, tok string, bits uint64, prec int8) {
		checkNumber(t, tok)
		v := math.Float64frombits(bits)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return
		}
		prec = prec%40 - 1 // -1 (shortest) up to 38 digits
		if prec < -1 {
			prec = -prec
		}
		for _, fmt := range []byte{'g', 'e', 'f'} {
			checkNumber(t, strconv.FormatFloat(v, fmt, int(prec), 64))
		}
	})
}

// TestEightDigits checks the eight-digit SWAR parse against the byte loop on
// random words, all-digit ones among them.
func TestEightDigits(t *testing.T) {
	r := rand.New(rand.NewSource(2802))
	for i := 0; i < 1_000_000; i++ {
		var b [8]byte
		for k := range b {
			if r.Intn(16) == 0 {
				b[k] = byte(r.Intn(256))
			} else {
				b[k] = byte('0' + r.Intn(10))
			}
		}
		want, ok := uint64(0), true
		for _, c := range b {
			ok = ok && isDigit(c)
			want = want*10 + uint64(c-'0')
		}
		w := uint64(0)
		for k := 7; k >= 0; k-- {
			w = w<<8 | uint64(b[k])
		}
		got, gotOK := eightDigits(w)
		if gotOK != ok || ok && got != want {
			t.Fatalf("eightDigits(%q) = %d, %v; want %d, %v", b[:], got, gotOK, want, ok)
		}
	}
}
