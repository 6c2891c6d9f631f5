package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// This file decodes the body of POST /v1/streams/{id}/observe: one pass over
// the JSON text, numbers parsed straight into pooled flat row buffers. The
// grammar it accepts is documented in docs/SERVING.md ("Observe body").

// errTooLarge marks an observe request that can never be accepted, however
// long the client waits: a permanent 413, not a retryable 429.
var errTooLarge = errors.New("split the batch")

// observeBytesPerValue is the body budget of one number: a shortest
// round-trip float64 takes at most 24 bytes, which leaves room for
// separators, brackets and some whitespace.
const observeBytesPerValue = 64

// observeBodySlack covers the keys, "from" and outer braces of a body.
const observeBodySlack = 1024

// observeBodyLimit is the largest observe body the server buffers: enough
// for a batch of maxPoints rows of d covariates and k responses. A bigger
// body could only carry a batch the per-stream queue bound rejects anyway.
func observeBodyLimit(maxPoints, d, k int) int64 {
	values := int64(maxPoints) * int64(d+k)
	if values > (math.MaxInt64-observeBodySlack)/observeBytesPerValue {
		return math.MaxInt64
	}
	return values*observeBytesPerValue + observeBodySlack
}

// observeScratch is the pooled per-request scratch of the observe handler:
// the body-read buffer and the flat buffers the body's numbers are parsed
// into. The buffers keep their backing arrays between requests, so a steady
// stream of same-shaped batches decodes with no allocation. Safe to recycle
// after the handler returns because enqueue blocks until the points are
// applied.
type observeScratch struct {
	body bytes.Buffer
	// x and ys hold the "x" and "ys" arrays; xs and yss the "xs" and "yss"
	// row arrays, flattened row-major.
	x, ys   []float64
	xs, yss rowField
	y       float64
	hasY    bool
	from    int64
	hasFrom bool
}

// rowField is one decoded array of rows, flattened row-major.
type rowField struct {
	flat []float64
	rows int
	// bad names the first row whose length is wrong. It is found as the row
	// closes but reported only after the shape checks, so a duplicate key
	// whose value replaces this one replaces the verdict too.
	bad error
}

var observeScratchPool = sync.Pool{New: func() any { return new(observeScratch) }}

// readObserve buffers an observe body, bounded by observeBodyLimit, and
// decodes it with decodeObserve. The returned slices reference sc.
func (s *Server) readObserve(sc *observeScratch, w http.ResponseWriter, r *http.Request) (xs, ys []float64, from int64, err error) {
	d, k := s.spec.Dim, s.spec.outcomes()
	limit := observeBodyLimit(s.ing.maxPoints, d, k)
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, nil, -1, fmt.Errorf("server: observe body exceeds %d bytes, more than a batch within the per-stream queue bound %d can need; %w", limit, s.ing.maxPoints, errTooLarge)
		}
		return nil, nil, -1, fmt.Errorf("server: reading observe body: %w", err)
	}
	return decodeObserve(sc, sc.body.Bytes(), d, k, s.ing.maxPoints)
}

// decodeObserve decodes an observe body into one flat row batch: covariates
// row-major (rows×d) and responses row-major (rows×k, k the pool's outcome
// count). A single-outcome pool takes {"x","y"} or {"xs","ys"}; a k-outcome
// pool takes {"x","ys"} (k responses) or {"xs","yss"} (k per row). The shape
// is validated eagerly — length and dimension mismatches are caught here,
// before anything is queued, so a coalesced batch downstream can only fail
// for per-stream reasons (horizon overrun). More than maxRows rows is an
// errTooLarge error. The returned slices reference sc.
//
// The optional "from" is the conditional-ingest offset, -1 when absent: the
// batch applies only if the stream's length equals it (an already-applied
// batch acks as a duplicate, anything else is a 409 conflict), which makes
// retries exactly-once across forwarding hops and standby promotion.
//
// Field presence is length-based (a key is "set" when it holds at least one
// element), so an explicitly empty batch ({"xs":[],"ys":[]}) is rejected
// like a missing body instead of acked as a zero-point success.
func decodeObserve(sc *observeScratch, body []byte, d, k, maxRows int) (xs, ys []float64, from int64, err error) {
	if err := sc.scan(body, d, k, maxRows); err != nil {
		return nil, nil, -1, err
	}
	from = -1
	if sc.hasFrom {
		if sc.from < 0 {
			return nil, nil, -1, fmt.Errorf(`server: "from" must be a non-negative stream offset, got %d`, sc.from)
		}
		from = sc.from
	}
	if k == 1 {
		if sc.yss.rows > 0 {
			return nil, nil, -1, errors.New(`server: "yss" is the multi-outcome batch form; this pool serves a single outcome (use "ys")`)
		}
		single := len(sc.x) > 0 || sc.hasY
		batch := sc.xs.rows > 0 || len(sc.ys) > 0
		switch {
		case single && batch:
			return nil, nil, -1, errors.New(`server: observe body must set either {"x","y"} or {"xs","ys"}, not both`)
		case single:
			if len(sc.x) == 0 || !sc.hasY {
				return nil, nil, -1, errors.New(`server: single-point observe requires both "x" and "y"`)
			}
			if len(sc.x) != d {
				return nil, nil, -1, fmt.Errorf("server: covariate 0 has dimension %d, pool dimension is %d", len(sc.x), d)
			}
			sc.ys = append(sc.ys[:0], sc.y)
			return sc.x, sc.ys, from, nil
		case !batch:
			return nil, nil, -1, errors.New(`server: observe body must set {"x","y"} or {"xs","ys"} with at least one point`)
		case sc.xs.rows != len(sc.ys):
			return nil, nil, -1, fmt.Errorf("server: batch covariate count %d does not match response count %d", sc.xs.rows, len(sc.ys))
		case sc.xs.bad != nil:
			return nil, nil, -1, sc.xs.bad
		}
		return sc.xs.flat, sc.ys, from, nil
	}
	if sc.hasY {
		return nil, nil, -1, fmt.Errorf(`server: this pool serves %d outcomes per row; send the responses as "ys" (single point) or "yss" (batch)`, k)
	}
	single := len(sc.x) > 0
	batch := sc.xs.rows > 0 || sc.yss.rows > 0
	switch {
	case single && batch:
		return nil, nil, -1, errors.New(`server: observe body must set either {"x","ys"} or {"xs","yss"}, not both`)
	case single:
		if len(sc.x) != d {
			return nil, nil, -1, fmt.Errorf("server: covariate has dimension %d, pool dimension is %d", len(sc.x), d)
		}
		if len(sc.ys) != k {
			return nil, nil, -1, fmt.Errorf(`server: single-point observe requires "ys" with %d responses, got %d`, k, len(sc.ys))
		}
		return sc.x, sc.ys, from, nil
	case !batch:
		return nil, nil, -1, errors.New(`server: observe body must set {"x","ys"} or {"xs","yss"} with at least one point`)
	case len(sc.ys) > 0:
		return nil, nil, -1, errors.New(`server: multi-outcome batches carry per-row responses in "yss", not "ys"`)
	case sc.xs.rows != sc.yss.rows:
		return nil, nil, -1, fmt.Errorf("server: batch covariate count %d does not match response-row count %d", sc.xs.rows, sc.yss.rows)
	case sc.xs.bad != nil:
		return nil, nil, -1, sc.xs.bad
	case sc.yss.bad != nil:
		return nil, nil, -1, sc.yss.bad
	}
	return sc.xs.flat, sc.yss.flat, from, nil
}

// scan parses body into sc in one pass. It checks the JSON grammar of
// everything it reads and stops at the first error; only whitespace may
// follow the object. Keys match ASCII case-insensitively, null leaves a key
// unset, and a duplicate key's last value wins.
func (sc *observeScratch) scan(body []byte, d, k, maxRows int) error {
	sc.x, sc.ys = sc.x[:0], sc.ys[:0]
	sc.xs.reset()
	sc.yss.reset()
	sc.hasY, sc.hasFrom = false, false
	p := jsonScan{b: body}
	if !p.eat('{') {
		return p.errorf("expected an object")
	}
	if !p.eat('}') {
		for {
			key, err := p.key()
			if err != nil {
				return err
			}
			if !p.eat(':') {
				return p.errorf("expected ':' after a key")
			}
			// key is ASCII, so EqualFold folds ASCII case only.
			switch {
			case bytes.EqualFold(key, []byte("x")):
				if sc.x = sc.x[:0]; !p.null() {
					sc.x, err = p.floats(sc.x)
				}
			case bytes.EqualFold(key, []byte("y")):
				if sc.hasY = !p.null(); sc.hasY {
					sc.y, err = p.float()
				}
			case bytes.EqualFold(key, []byte("xs")):
				err = p.rows(&sc.xs, d, maxRows, "server: covariate %d has dimension %d, pool dimension is %d")
			case bytes.EqualFold(key, []byte("ys")):
				if sc.ys = sc.ys[:0]; !p.null() {
					sc.ys, err = p.floats(sc.ys)
				}
			case bytes.EqualFold(key, []byte("yss")):
				err = p.rows(&sc.yss, k, maxRows, "server: response row %d has %d outcomes, pool serves %d")
			case bytes.EqualFold(key, []byte("from")):
				if sc.hasFrom = !p.null(); sc.hasFrom {
					sc.from, err = p.offset()
				}
			default:
				return fmt.Errorf("server: decoding observe body: unknown field %q", key)
			}
			if err != nil {
				return err
			}
			if p.eat(',') {
				continue
			}
			if p.eat('}') {
				break
			}
			return p.errorf("expected ',' or '}' after a value")
		}
	}
	if p.ws(); p.i < len(p.b) {
		return p.errorf("unexpected data after the observe object")
	}
	return nil
}

func (f *rowField) reset() { f.flat, f.rows, f.bad = f.flat[:0], 0, nil }

// jsonScan is a cursor over one JSON text. Each method skips leading
// whitespace, consumes one token or value, and reports malformed input as an
// error.
type jsonScan struct {
	b []byte
	i int
	// pow is the power-of-ten table, fetched on the first number that
	// needs it.
	pow *pow10s
}

func (p *jsonScan) errorf(what string) error {
	return fmt.Errorf("server: decoding observe body: %s at byte %d of %d", what, p.i, len(p.b))
}

// ws skips JSON whitespace.
func (p *jsonScan) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it comes next.
func (p *jsonScan) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// null consumes a null literal if one comes next.
func (p *jsonScan) null() bool {
	p.ws()
	if bytes.HasPrefix(p.b[p.i:], []byte("null")) {
		p.i += len("null")
		return true
	}
	return false
}

// key consumes an object key and returns its raw text. Every observe field
// is a plain ASCII name, so a key holding an escape or a non-ASCII byte is
// rejected as an unknown field without being unescaped.
func (p *jsonScan) key() ([]byte, error) {
	if !p.eat('"') {
		return nil, p.errorf("expected a string key")
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], nil
		case c == '\\' || c >= utf8.RuneSelf:
			return nil, p.errorf("unknown field: keys are plain ASCII names without escapes")
		case c < 0x20:
			return nil, p.errorf("control character in a key")
		}
	}
	return nil, p.errorf("unterminated key")
}

// number consumes one number token matching the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and, in the same pass, reads
// its value as man·10^exp10: up to 19 significant digits in man (10^19 fits a
// uint64), exact unless trunc says a nonzero digit beyond them was dropped.
// The token is p.b[start:p.i].
func (p *jsonScan) number() (start int, man uint64, exp10 int, neg, trunc bool, err error) {
	p.ws()
	b, i := p.b, p.i
	start = i
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	nd := 0 // significant digits in man
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i, man, nd = mantissa(b, i, 0, 0)
		for ; i < len(b) && isDigit(b[i]); i++ {
			exp10++
			trunc = trunc || b[i] != '0'
		}
	default:
		return start, 0, 0, false, false, p.errorf("expected a number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if nd == 0 {
			for i < len(b) && b[i] == '0' {
				i++ // leading zeros are not significant
			}
		}
		i, man, nd = mantissa(b, i, man, nd)
		exp10 -= i - frac
		for ; i < len(b) && isDigit(b[i]); i++ {
			trunc = trunc || b[i] != '0'
		}
		if i == frac {
			return start, 0, 0, false, false, p.errorf("malformed number")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		digits, e := i, 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			// Past 10^4 the exponent is far outside the float64 range
			// either way; capping it keeps e from overflowing.
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == digits {
			return start, 0, 0, false, false, p.errorf("malformed number")
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	p.i = i
	return start, man, exp10, neg, trunc, nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// mantissa appends the digits at b[i:] to man, which holds nd significant
// digits, until the run ends or man holds 19 (10^19 fits a uint64), and
// returns where it stopped with the new man and nd.
func mantissa(b []byte, i int, man uint64, nd int) (int, uint64, int) {
	start, end := i, min(len(b), i+19-nd)
	for ; i+8 <= end; i += 8 {
		v, ok := eightDigits(binary.LittleEndian.Uint64(b[i:]))
		if !ok {
			break
		}
		man = man*100_000_000 + v
	}
	for ; i < end && isDigit(b[i]); i++ {
		man = man*10 + uint64(b[i]-'0')
	}
	return i, man, nd + i - start
}

// eightDigits reads eight ASCII bytes, the first in the low byte of w, as a
// decimal number if all eight are digits (the SWAR parse of Lemire's
// fast_float).
func eightDigits(w uint64) (uint64, bool) {
	const zeros = 0x3030303030303030
	if w&0xf0f0f0f0f0f0f0f0 != zeros || (w+0x0606060606060606)&0xf0f0f0f0f0f0f0f0 != zeros {
		return 0, false
	}
	w -= zeros
	w = w*10 + w>>8 // pairs of digits in alternate bytes
	const mask = 0x000000ff000000ff
	return uint64(uint32(((w&mask)*(100+1000000<<32) + (w>>16&mask)*(1+10000<<32)) >> 32)), true
}

// float consumes one number as the float64 nearest its value, the bits
// strconv.ParseFloat (the call encoding/json makes) gives: Clinger's exact
// path, then Eisel–Lemire, then ParseFloat itself for what neither decides —
// more than 19 significant digits, an exponent outside the power table, a
// halfway or ambiguous product, and results that overflow or are subnormal.
// ParseFloat can fail only on range, since the token has passed the grammar.
// string(tok) does not escape, so a token of up to 32 bytes converts without
// allocating.
func (p *jsonScan) float() (float64, error) {
	start, man, exp10, neg, trunc, err := p.number()
	if err != nil {
		return 0, err
	}
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), nil
		}
		return 0, nil
	}
	if !trunc {
		if v, ok := exactFloat(man, exp10, neg); ok {
			return v, nil
		}
		if p.pow == nil {
			p.pow = pow10Table()
		}
		if v, ok := eiselLemire(p.pow, man, exp10, neg); ok {
			return v, nil
		}
	}
	tok := p.b[start:p.i]
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("server: decoding observe body: number %s does not fit a float64", tok)
	}
	return v, nil
}

// offset consumes the "from" offset: a number that parses as an int64, as
// encoding/json decodes one.
func (p *jsonScan) offset() (int64, error) {
	start, _, _, _, _, err := p.number()
	if err != nil {
		return 0, err
	}
	tok := p.b[start:p.i]
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return 0, fmt.Errorf(`server: decoding observe body: "from" must be an integer stream offset, got %s`, tok)
	}
	return v, nil
}

// floats consumes an array of numbers and appends them to dst. A null
// element is rejected: it is not a number.
func (p *jsonScan) floats(dst []float64) ([]float64, error) {
	if !p.eat('[') {
		return dst, p.errorf("expected an array of numbers")
	}
	if p.eat(']') {
		return dst, nil
	}
	for {
		v, err := p.float()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			return dst, nil
		}
		return dst, p.errorf("expected ',' or ']' in an array of numbers")
	}
}

// rows consumes null or an array of number arrays into f, checking each
// row's length against width as the row closes; badRow formats the verdict
// on the first wrong row from its index, length and width. More than maxRows
// rows is an errTooLarge error.
func (p *jsonScan) rows(f *rowField, width, maxRows int, badRow string) error {
	f.reset()
	if p.null() {
		return nil
	}
	if !p.eat('[') {
		return p.errorf("expected an array of rows")
	}
	if p.eat(']') {
		return nil
	}
	for {
		if f.rows == maxRows {
			return fmt.Errorf("server: batch exceeds the per-stream queue bound of %d points; %w", maxRows, errTooLarge)
		}
		start := len(f.flat)
		var err error
		if f.flat, err = p.floats(f.flat); err != nil {
			return err
		}
		if n := len(f.flat) - start; n != width && f.bad == nil {
			f.bad = fmt.Errorf(badRow, f.rows, n, width)
		}
		f.rows++
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			return nil
		}
		return p.errorf("expected ',' or ']' in an array of rows")
	}
}
