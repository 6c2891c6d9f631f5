package privreg

import (
	"errors"
	"fmt"
	"testing"
)

// TestExportImportSegmentBitIdentical is the pool-level handoff contract:
// moving a stream between two pools of the same recipe (mechanism, privacy,
// template seed) through ExportSegment/ImportSegment must be invisible in
// the output sequence — the destination continues the stream exactly where
// the source stood, and further observations land bit-identically to a pool
// that never moved.
func TestExportImportSegmentBitIdentical(t *testing.T) {
	for _, spill := range []bool{false, true} {
		name := "resident"
		if spill {
			name = "spill"
		}
		t.Run(name, func(t *testing.T) {
			opts := func() []Option { return testPoolOptions(31) }
			src, err := NewPool("gradient", opts()...)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewPool("gradient", opts()...)
			if err != nil {
				t.Fatal(err)
			}
			dstOpts := opts()
			if spill {
				dstOpts = append(dstOpts, WithSpillDir(t.TempDir()))
			}
			dst, err := NewPool("gradient", dstOpts...)
			if err != nil {
				t.Fatal(err)
			}

			const half, full = 9, 17
			for i := 0; i < half; i++ {
				x, y := syntheticPoint(i, 4)
				if err := observe(src, "mover", x, y); err != nil {
					t.Fatal(err)
				}
				if err := observe(ref, "mover", x, y); err != nil {
					t.Fatal(err)
				}
			}

			data, n, err := src.ExportSegment("mover")
			if err != nil || n != half {
				t.Fatalf("export: n=%d err=%v", n, err)
			}
			id, err := dst.ImportSegment(data, n)
			if err != nil || id != "mover" {
				t.Fatalf("import: id=%q err=%v", id, err)
			}
			if got, _ := dst.LenOK("mover"); got != half {
				t.Fatalf("imported length %d, want %d", got, half)
			}

			for i := half; i < full; i++ {
				x, y := syntheticPoint(i, 4)
				if err := observe(dst, "mover", x, y); err != nil {
					t.Fatal(err)
				}
				if err := observe(ref, "mover", x, y); err != nil {
					t.Fatal(err)
				}
			}
			got, err := dst.Estimate("mover")
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Estimate("mover")
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%x", got) != fmt.Sprintf("%x", want) {
				t.Fatalf("handed-off estimate diverged:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestExportSegmentUnknownStream pins the error identity.
func TestExportSegmentUnknownStream(t *testing.T) {
	p, err := NewPool("gradient", testPoolOptions(1)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.ExportSegment("nope"); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("ExportSegment(nope) = %v, want ErrUnknownStream", err)
	}
}
