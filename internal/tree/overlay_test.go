package tree

import (
	"math"
	"testing"

	"privreg/internal/codec"
	"privreg/internal/randx"
)

// overlayTolerance bounds |release − reference release| relative to
// 1 + the largest magnitude the reference released so far. The overlay adds
// the same node noise to the exact prefix sum that the reference adds to its
// level partial sums, so the two differ by float rounding in the order of the
// additions only; a mis-keyed node or a lost epoch is larger by many orders
// of magnitude.
const overlayTolerance = 1e-12

// refPair drives an overlay stream and the pre-overlay reference mechanism
// on the same elements and compares their releases.
type refPair struct {
	st    *sumStream
	ref   releaser
	scale float64 // largest reference magnitude seen
	worst float64 // largest |Δ| / (1 + scale) seen
	got   []float64
	want  []float64
}

func newRefPair(t testing.TB, hybrid bool, dim, maxLen int, seed int64) *refPair {
	t.Helper()
	p := &refPair{got: make([]float64, dim), want: make([]float64, dim)}
	src := randx.NewSource(seed)
	if hybrid {
		h, err := NewHybrid(dim, 2, testPrivacy(), src)
		if err != nil {
			t.Fatal(err)
		}
		p.st, p.ref = hybridStream(h), newRefHybrid(h)
		return p
	}
	cfg := Config{Dim: dim, MaxLen: maxLen, Sensitivity: 2, Privacy: testPrivacy()}
	st, err := treeStream(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefTree(cfg, st.ov.(*Tree).noiseKey)
	if err != nil {
		t.Fatal(err)
	}
	p.st, p.ref = st, ref
	return p
}

func (p *refPair) add(t testing.TB, v []float64) {
	t.Helper()
	if err := p.st.AddTo(nil, v); err != nil {
		t.Fatal(err)
	}
	if err := p.ref.AddTo(nil, v); err != nil {
		t.Fatal(err)
	}
}

// check reads both releases and fails when they differ beyond the tolerance.
func (p *refPair) check(t testing.TB) {
	t.Helper()
	p.st.SumInto(p.got)
	p.ref.SumInto(p.want)
	for k, w := range p.want {
		p.scale = math.Max(p.scale, math.Abs(w))
		d := math.Abs(p.got[k]-w) / (1 + p.scale)
		if !(d <= overlayTolerance) {
			t.Fatalf("t=%d coord %d: overlay release %v, reference %v (relative Δ %.3g > %.0e)",
				p.st.Len(), k, p.got[k], w, d, overlayTolerance)
		}
		p.worst = math.Max(p.worst, d)
	}
}

// TestOverlayMatchesReference holds the overlay's release, an exact running
// sum plus the node noise, to the pre-overlay mechanisms' over long random
// streams read at every step: a Tree over its whole horizon, and a Hybrid
// across twelve epoch rollovers.
func TestOverlayMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hybrid bool
		steps  int
	}{{"tree", false, 4096}, {"hybrid", true, 5000}} {
		t.Run(tc.name, func(t *testing.T) {
			const dim = 6
			p := newRefPair(t, tc.hybrid, dim, tc.steps, 77)
			driver := randx.NewSource(78)
			for i := 0; i < tc.steps; i++ {
				p.add(t, driver.NormalVector(dim, 1))
				p.check(t)
			}
			t.Logf("max relative |Δ| %.3g over %d reads (scale %.4g)", p.worst, tc.steps, p.scale)
		})
	}
}

// FuzzOverlay drives a Tree or Hybrid stream and its reference through a
// fuzzed row stream with fuzzed read points, checkpoints the stream at a
// fuzzed cut and restores it into a differently seeded instance. Every read
// must stay within overlayTolerance of the reference, and the restored stream
// must continue bit-identically to the uninterrupted one.
func FuzzOverlay(f *testing.F) {
	f.Add([]byte{0, 3, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 2, 5, 255, 128, 0, 64, 200, 13, 77, 91, 3, 3, 3, 180, 1, 250, 9, 9, 44, 45})
	f.Add([]byte{1, 1, 0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		hybrid := data[0]&1 == 1
		dim := 1 + int(data[1]%4)
		// Each byte of the body is one step of 1 + b>>5 rows, whose
		// coordinates are counter-keyed normals of the byte and the row; an
		// odd byte reads after its step. The cap keeps inputs short enough to
		// minimize, while up to 512 rows cross nine Hybrid rollovers.
		body := data[3:]
		if len(body) > 64 {
			body = body[:64]
		}
		cut := int(data[2]) % (len(body) + 1)
		rows := 0
		for _, b := range body {
			rows += 1 + int(b>>5)
		}
		maxLen := max(rows, 1)
		p := newRefPair(t, hybrid, dim, maxLen, int64(data[0])+1)
		var restored *sumStream
		got := make([]float64, dim)
		want := make([]float64, dim)
		v := make([]float64, dim)
		for i, b := range body {
			if i == cut {
				restored = restore(t, p.st, hybrid, dim, maxLen)
			}
			for r := 0; r <= int(b>>5); r++ {
				randx.FillNormalAt(int64(b), uint64(p.st.Len()), v, 1)
				p.add(t, v)
				if restored != nil {
					if err := restored.AddTo(nil, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			if b&1 == 0 && i != len(body)-1 {
				continue
			}
			p.check(t)
			if restored != nil {
				p.st.SumInto(want)
				restored.SumInto(got)
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("t=%d coord %d: restored %v != uninterrupted %v", p.st.Len(), k, got[k], want[k])
					}
				}
			}
		}
	})
}

// restore checkpoints st and restores it into a stream built with another
// seed, so the noise key must come from the checkpoint.
func restore(t *testing.T, st *sumStream, hybrid bool, dim, maxLen int) *sumStream {
	t.Helper()
	var out *sumStream
	src := randx.NewSource(9001)
	if hybrid {
		h, err := NewHybrid(dim, 2, testPrivacy(), src)
		if err != nil {
			t.Fatal(err)
		}
		out = hybridStream(h)
	} else {
		var err error
		if out, err = treeStream(Config{Dim: dim, MaxLen: maxLen, Sensitivity: 2, Privacy: testPrivacy()}, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.UnmarshalState(codec.Encode(st)); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOverlayNoiseIsPureInT checks that an overlay's noise depends on the
// stream length alone, not on the lengths read before: a Tree or Hybrid read
// at a later length and then at earlier ones adds the bits a fresh instance
// adds at each earlier one.
func TestOverlayNoiseIsPureInT(t *testing.T) {
	const dim = 3
	build := func(hybrid bool) Overlay {
		if hybrid {
			h, err := NewHybrid(dim, 2, testPrivacy(), randx.NewSource(5))
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		tr, err := New(Config{Dim: dim, MaxLen: 256, Sensitivity: 2, Privacy: testPrivacy()}, randx.NewSource(5))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, hybrid := range []bool{false, true} {
		used := build(hybrid)
		used.AddNoiseTo(make([]float64, dim), 200)
		for _, n := range []int{37, 6, 0} {
			got, want := make([]float64, dim), make([]float64, dim)
			used.AddNoiseTo(got, n)
			build(hybrid).AddNoiseTo(want, n)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("hybrid=%v t=%d coord %d: after a read at 200, %v; fresh %v", hybrid, n, k, got[k], want[k])
				}
			}
		}
	}
}
