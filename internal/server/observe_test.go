package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"regexp"
	"testing"
)

// observeValidationBodies are observe bodies a pool of dimension 4 with one
// outcome must reject with 400 (TestObserveValidation); they also seed
// FuzzDecodeObserve.
var observeValidationBodies = map[string]string{
	"empty object":       `{}`,
	"both forms":         `{"x":[1,0,0,0],"y":1,"xs":[[1,0,0,0]],"ys":[1]}`,
	"x without y":        `{"x":[1,0,0,0]}`,
	"length mismatch":    `{"xs":[[1,0,0,0]],"ys":[1,2]}`,
	"dimension mismatch": `{"xs":[[1,0]],"ys":[1]}`,
	"unknown field":      `{"x":[1,0,0,0],"y":1,"bogus":1}`,
	"malformed JSON":     `{nope`,
	"trailing garbage":   `{"xs":[[1,2,3,4]],"ys":[3]} garbage`,
	"second object":      `{"xs":[[1,2,3,4]],"ys":[3]}{"x":[9,9,9,9]}`,
}

// perfbenchBody is an observe body at the http-read-write shape: `rows`
// SyntheticPoint rows of dimension d from offset off, with "from" set, keyed
// and encoded the way perfbench's JSON client sends them.
func perfbenchBody(tb testing.TB, off, rows, d int) []byte {
	tb.Helper()
	xs := make([][]float64, rows)
	ys := make([]float64, rows)
	for i := range xs {
		xs[i], ys[i] = SyntheticPoint("stream-0042", off+i, d)
	}
	body, err := json.Marshal(struct {
		Xs [][]float64 `json:"xs"`
		Ys []float64   `json:"ys"`
	}{xs, ys})
	if err != nil {
		tb.Fatal(err)
	}
	return append([]byte(fmt.Sprintf(`{"from":%d,`, off)), body[1:]...)
}

// observeRequestJSON and decodeObserveJSON are the observe decode the server
// ran before its one-pass scanner: encoding/json into nested slices, then the
// same shape checks, then a flattening loop. FuzzDecodeObserve holds the
// scanner to it. rest is what followed the first JSON value.
type observeRequestJSON struct {
	X    []float64   `json:"x,omitempty"`
	Y    *float64    `json:"y,omitempty"`
	Xs   [][]float64 `json:"xs,omitempty"`
	Ys   []float64   `json:"ys,omitempty"`
	Yss  [][]float64 `json:"yss,omitempty"`
	From *int64      `json:"from,omitempty"`
}

func decodeObserveJSON(body []byte, d, k int) (xs, ys []float64, from int64, rest []byte, err error) {
	var req observeRequestJSON
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, -1, nil, err
	}
	rest = body[dec.InputOffset():]
	fail := func(why string) ([]float64, []float64, int64, []byte, error) {
		return nil, nil, -1, rest, errors.New(why)
	}
	from = -1
	if req.From != nil {
		if *req.From < 0 {
			return fail("negative from")
		}
		from = *req.From
	}
	if k == 1 {
		if len(req.Yss) > 0 {
			return fail("yss on a single-outcome pool")
		}
		single := len(req.X) > 0 || req.Y != nil
		batch := len(req.Xs) > 0 || len(req.Ys) > 0
		switch {
		case single && batch:
			return fail("both forms")
		case single:
			if len(req.X) != d || req.Y == nil {
				return fail("bad single point")
			}
			return req.X, []float64{*req.Y}, from, rest, nil
		case !batch:
			return fail("no point")
		case len(req.Xs) != len(req.Ys):
			return fail("count mismatch")
		}
	} else {
		if req.Y != nil {
			return fail("y on a multi-outcome pool")
		}
		single := len(req.X) > 0
		batch := len(req.Xs) > 0 || len(req.Yss) > 0
		switch {
		case single && batch:
			return fail("both forms")
		case single:
			if len(req.X) != d || len(req.Ys) != k {
				return fail("bad single point")
			}
			return req.X, req.Ys, from, rest, nil
		case !batch:
			return fail("no point")
		case len(req.Ys) > 0:
			return fail("ys in a multi-outcome batch")
		case len(req.Xs) != len(req.Yss):
			return fail("count mismatch")
		}
	}
	for i, x := range req.Xs {
		if len(x) != d {
			return fail("bad covariate row")
		}
		xs = append(xs, x...)
		if k > 1 {
			if len(req.Yss[i]) != k {
				return fail("bad response row")
			}
			ys = append(ys, req.Yss[i]...)
		}
	}
	if k == 1 {
		ys = req.Ys
	}
	return xs, ys, from, rest, nil
}

// nullElement matches a null array element: after '[' or ',' only an array
// element can start a null, since an object key is a string.
var nullElement = regexp.MustCompile(`[\[,][ \t\r\n]*null`)

// FuzzDecodeObserve checks the one-pass scanner against the encoding/json
// decode it replaced, at three pool shapes. Both must accept and reject the
// same bodies, and an accepted body must decode to the same bits. The
// scanner deliberately rejects three things encoding/json accepted:
//   - bytes other than whitespace after the object (encoding/json's Decoder
//     stops after the first value);
//   - a key holding an escape or a non-ASCII byte (`"\u0078"` for "x", or
//     "xſ", which encoding/json folds to "xs"): no observe field needs one;
//   - null as an array element, which the old pooled decode read as
//     whatever a reused buffer held there, and a fresh one as 0.
//
// Each exclusion is taken only when the body independently shows its cause.
func FuzzDecodeObserve(f *testing.F) {
	f.Add(perfbenchBody(f, 4096, 16, 32))
	for _, body := range observeValidationBodies {
		f.Add([]byte(body))
	}
	for _, c := range decodeObserveCases {
		f.Add([]byte(c.body))
	}
	// Multi-outcome forms, for the d=2, k=3 shape.
	f.Add([]byte(`{"xs":[[1,2],[3,4]],"yss":[[5,6,7],[8,9,10]]}`))
	f.Add([]byte(`{"x":[1,2],"ys":[5,6,7],"from":0}`))
	f.Add([]byte(`{"xs":[[1,2],[3,4]],"yss":[[5,6,7],[8,9]]}`))
	shapes := []struct{ d, k int }{{4, 1}, {32, 1}, {2, 3}}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, sh := range shapes {
			sc := observeScratchPool.Get().(*observeScratch)
			xs, ys, from, err := decodeObserve(sc, body, sh.d, sh.k, math.MaxInt)
			wantXs, wantYs, wantFrom, rest, wantErr := decodeObserveJSON(body, sh.d, sh.k)
			switch {
			case err != nil && wantErr == nil:
				trailing := len(bytes.TrimLeft(rest, " \t\r\n")) > 0
				oddKey := bytes.ContainsAny(body, `\`) || !isASCII(body)
				if !trailing && !oddKey && !nullElement.Match(body) {
					t.Errorf("d=%d k=%d: scanner rejects %q (%v); encoding/json accepts it", sh.d, sh.k, body, err)
				}
			case err == nil && wantErr != nil:
				t.Errorf("d=%d k=%d: scanner accepts %q; encoding/json rejects it (%v)", sh.d, sh.k, body, wantErr)
			case err == nil:
				if !sameBits(xs, wantXs) || !sameBits(ys, wantYs) || from != wantFrom {
					t.Errorf("d=%d k=%d: %q decodes to xs=%v ys=%v from=%d, encoding/json to xs=%v ys=%v from=%d",
						sh.d, sh.k, body, xs, ys, from, wantXs, wantYs, wantFrom)
				}
			}
			observeScratchPool.Put(sc)
		}
	})
}

func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// decodeObserveCases pin the observe grammar at d=4, k=1: keys, case, null,
// duplicates, number edge cases and what may follow the object. want is the
// decoded covariates then the responses; nil wants a rejection.
var decodeObserveCases = []struct {
	name string
	body string
	want []float64
	from int64
}{
	{"single point", `{"x":[1,2,3,4],"y":5}`, []float64{1, 2, 3, 4, 5}, -1},
	{"batch with from", "\t{ \"from\" : 7 ,\n\"xs\":[ [1,2,3,4] , [5,6,7,8] ],\"ys\":[9,10]}\r\n", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 7},
	{"keys ignore ASCII case", `{"XS":[[1,2,3,4]],"Ys":[5],"FROM":3}`, []float64{1, 2, 3, 4, 5}, 3},
	{"null is absent", `{"x":[1,2,3,4],"y":5,"xs":null,"ys":null,"yss":null,"from":null}`, []float64{1, 2, 3, 4, 5}, -1},
	{"last duplicate wins", `{"x":[1],"x":[1,2,3,4],"y":5,"y":6,"from":-1,"from":2}`, []float64{1, 2, 3, 4, 6}, 2},
	{"duplicate replaces a bad row", `{"xs":[[1]],"xs":[[1,2,3,4]],"ys":[5]}`, []float64{1, 2, 3, 4, 5}, -1},
	{"null replaces a value", `{"xs":[[1,2,3,4]],"ys":[5],"x":[1,2,3,4],"x":null}`, []float64{1, 2, 3, 4, 5}, -1},
	{"number forms", `{"x":[-0,0.5e-1,1E+2,-12.25e0],"y":1e-400}`, []float64{math.Copysign(0, -1), 0.05, 100, -12.25, 0}, -1},
	{"subnormals and extremes", `{"x":[5e-324,2.2250738585072014e-308,1e308,-1.7976931348623157e308],"y":4.9e-324}`, []float64{5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 5e-324}, -1},
	{"2^53+1 rounds to even", `{"x":[1,2,3,4],"y":9007199254740993}`, []float64{1, 2, 3, 4, 9007199254740992}, -1},
	{"1e23", `{"x":[1,2,3,4],"y":1e23}`, []float64{1, 2, 3, 4, 1e23}, -1},
	{"largest subnormal", `{"x":[1,2,3,4],"y":2.2250738585072011e-308}`, []float64{1, 2, 3, 4, 2.2250738585072011e-308}, -1},
	{"smallest subnormal", `{"x":[1,2,3,4],"y":4.9e-324}`, []float64{1, 2, 3, 4, 5e-324}, -1},
	{"negative zero", `{"x":[1,2,3,4],"y":-0}`, []float64{1, 2, 3, 4, math.Copysign(0, -1)}, -1},
	{"below half the smallest subnormal", `{"x":[1,2,3,4],"y":2.4e-324}`, []float64{1, 2, 3, 4, 0}, -1},
	{"zero with a huge exponent", `{"x":[1,2,3,4],"y":0e99999999999}`, []float64{1, 2, 3, 4, 0}, -1},
	{"25 significant digits", `{"x":[1,2,3,4],"y":1.234567890123456789012345}`, []float64{1, 2, 3, 4, 1.234567890123456789012345}, -1},
	{"30 leading fraction zeros", `{"x":[1,2,3,4],"y":0.0000000000000000000000000000001234}`, []float64{1, 2, 3, 4, 1.234e-31}, -1},
	{"just past the largest float64", `{"x":[1,2,3,4],"y":1.7976931348623159e308}`, nil, 0},
	{"huge exponent", `{"x":[1,2,3,4],"y":1e999999999999999999}`, nil, 0},
	{"trailing garbage", `{"x":[1,2,3,4],"y":5} garbage`, nil, 0},
	{"second object", `{"x":[1,2,3,4],"y":5}{"x":[9,9,9,9]}`, nil, 0},
	{"out of range", `{"x":[1e400,0,0,0],"y":1}`, nil, 0},
	{"from as a float", `{"from":1e2,"x":[1,2,3,4],"y":5}`, nil, 0},
	{"from out of range", `{"from":9223372036854775808,"x":[1,2,3,4],"y":5}`, nil, 0},
	{"negative from", `{"from":-1,"x":[1,2,3,4],"y":5}`, nil, 0},
	{"escaped key", `{"\u0078":[1,2,3,4],"y":5}`, nil, 0},
	{"non-ASCII key", `{"xſ":[[1,2,3,4]],"ys":[5]}`, nil, 0},
	{"null element", `{"x":[null,2,3,4],"y":5}`, nil, 0},
	{"leading zero", `{"x":[01,2,3,4],"y":5}`, nil, 0},
	{"bare decimal point", `{"x":[1.,2,3,4],"y":5}`, nil, 0},
	{"plus sign", `{"x":[+1,2,3,4],"y":5}`, nil, 0},
	{"string number", `{"x":["1",2,3,4],"y":5}`, nil, 0},
	{"trailing comma", `{"x":[1,2,3,4,],"y":5}`, nil, 0},
	{"not an object", `[1,2,3,4]`, nil, 0},
	{"empty body", ``, nil, 0},
	{"empty batch", `{"xs":[],"ys":[]}`, nil, 0},
	{"yss on one outcome", `{"xs":[[1,2,3,4]],"yss":[[5]]}`, nil, 0},
}

func TestDecodeObserveGrammar(t *testing.T) {
	for _, c := range decodeObserveCases {
		var sc observeScratch
		xs, ys, from, err := decodeObserve(&sc, []byte(c.body), 4, 1, 16)
		if c.want == nil {
			if err == nil {
				t.Errorf("%s: %q accepted, want a rejection", c.name, c.body)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %q rejected: %v", c.name, c.body, err)
			continue
		}
		if got := append(append([]float64(nil), xs...), ys...); !sameBits(got, c.want) || from != c.from {
			t.Errorf("%s: %q decodes to %v from=%d, want %v from=%d", c.name, c.body, got, from, c.want, c.from)
		}
	}
}

// BenchmarkDecodeObserve decodes one http-read-write body: 16 rows of d=32
// SyntheticPoint values with "from" set.
func BenchmarkDecodeObserve(b *testing.B) {
	body := perfbenchBody(b, 4096, 16, 32)
	var sc observeScratch
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := decodeObserve(&sc, body, 32, 1, defaultMaxQueuedPoints); err != nil {
			b.Fatal(err)
		}
	}
}
