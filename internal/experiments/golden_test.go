package experiments

import (
	"fmt"
	"hash/fnv"
	"os"
	"testing"
)

// TestQuickExperimentsGolden pins the rendered output of every experiment in
// quick mode: the FNV-64a digest of each Result.String() must match the
// recorded value, so a change to how the experiments feed their mechanisms
// that moves any printed figure fails here. Set PRIVREG_GOLDEN_PRINT=1 to
// print the digests instead.
func TestQuickExperimentsGolden(t *testing.T) {
	want := map[string]uint64{
		"E1":  0xdb4458cc31c66378,
		"E2":  0x6ca86afdda6b22aa,
		"E3":  0x345d9b034d6c34e2,
		"E4":  0xa19e9941bd23d213,
		"E5":  0xdf7d0603b1bbadff,
		"E6":  0xd9dabc1042abdbc,
		"E7":  0x83aa7a05b3a7bded,
		"E8":  0xdb8854a2a0bb15b0,
		"E9":  0x6c2b383ceacc3f79,
		"E10": 0x8cc04aecdf16a56f,
		"A1":  0xc02e9f75ada52709,
		"A2":  0xf73d6053fca1c1c,
		"A3":  0xdd68a7e46f485374,
		"A4":  0x505882a6d0ff9161,
		"A5":  0xffa12ee47c3b07d0,
	}
	print := os.Getenv("PRIVREG_GOLDEN_PRINT") != ""
	results, err := All(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(want) {
		t.Errorf("%d experiments ran, %d are pinned", len(results), len(want))
	}
	for _, r := range results {
		h := fnv.New64a()
		h.Write([]byte(r.String()))
		got := h.Sum64()
		if print {
			fmt.Printf("%q: %#x,\n", r.ID, got)
			continue
		}
		if got != want[r.ID] {
			t.Errorf("%s: output digest %#x, want %#x\n%s", r.ID, got, want[r.ID], r.String())
		}
	}
}
