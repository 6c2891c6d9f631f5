package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// segFiles lists the segment directory of a store rooted at dir.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	dirents, err := os.ReadDir(filepath.Join(dir, SegmentDir))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range dirents {
		out = append(out, de.Name())
	}
	return out
}

// TestExportImportRoundTrip moves streams between stores through the segment
// transfer format: memory-only→memory-only, directory→directory (with the
// source stream both resident and spilled-clean), and memory-only→directory.
func TestExportImportRoundTrip(t *testing.T) {
	t.Run("resident", func(t *testing.T) {
		src := memStore(t, "mech")
		appendTo(t, src, "a", 1.5)
		appendTo(t, src, "a", -2.25)
		data, n, err := src.Export("a")
		if err != nil || n != 2 {
			t.Fatalf("export: n=%d err=%v", n, err)
		}
		dst := memStore(t, "mech")
		id, err := dst.Import(data, n)
		if err != nil || id != "a" {
			t.Fatalf("import: id=%q err=%v", id, err)
		}
		if got := valuesOf(t, dst, "a"); len(got) != 2 || got[0] != 1.5 || got[1] != -2.25 {
			t.Fatalf("imported values %v", got)
		}
		if l, ok := dst.Length("a"); !ok || l != 2 {
			t.Fatalf("imported length %d %v", l, ok)
		}
	})

	t.Run("spill", func(t *testing.T) {
		srcDir, dstDir := t.TempDir(), t.TempDir()
		src, err := Open(srcDir, "mech", 1, fakeFactory())
		if err != nil {
			t.Fatal(err)
		}
		// Two streams over a cap of 1, so one is spilled-clean after a flush
		// and Export serves it verbatim from its file.
		appendTo(t, src, "hot", 3.5)
		appendTo(t, src, "cold", 7.25)
		if _, err := src.Flush(); err != nil {
			t.Fatal(err)
		}

		dst, err := Open(dstDir, "mech", 0, fakeFactory())
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"hot", "cold"} {
			data, n, err := src.Export(id)
			if err != nil || n != 1 {
				t.Fatalf("export %s: n=%d err=%v", id, n, err)
			}
			if got, err := dst.Import(data, n); err != nil || got != id {
				t.Fatalf("import %s: id=%q err=%v", id, got, err)
			}
		}
		// Imported streams are spilled (not resident) until first access.
		if st := dst.Stats(); st.Streams != 2 || st.Resident != 0 {
			t.Fatalf("post-import stats: %+v", st)
		}
		if got := valuesOf(t, dst, "hot"); len(got) != 1 || got[0] != 3.5 {
			t.Fatalf("hot: %v", got)
		}
		if got := valuesOf(t, dst, "cold"); len(got) != 1 || got[0] != 7.25 {
			t.Fatalf("cold: %v", got)
		}

		// After a flush the manifest adopts the imported files and a reopen
		// restores them.
		if _, err := dst.Flush(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dstDir, "mech", 0, fakeFactory())
		if err != nil {
			t.Fatal(err)
		}
		if got := valuesOf(t, re, "cold"); len(got) != 1 || got[0] != 7.25 {
			t.Fatalf("reopened cold: %v", got)
		}
	})

	t.Run("cross-backend", func(t *testing.T) {
		src := memStore(t, "mech")
		appendTo(t, src, "x", 9)
		data, n, err := src.Export("x")
		if err != nil {
			t.Fatal(err)
		}
		dst, err := Open(t.TempDir(), "mech", 0, fakeFactory())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.Import(data, n); err != nil {
			t.Fatal(err)
		}
		if got := valuesOf(t, dst, "x"); len(got) != 1 || got[0] != 9 {
			t.Fatalf("cross-backend: %v", got)
		}
	})
}

// TestImportRejectsCorruptSegment flips a bit in a transferred segment and
// requires Import to reject it with NO local side effects: no stream
// registered, no segment file left behind, and the store's manifest still
// round-trips cleanly — a corrupt push must not poison the receiving node.
func TestImportRejectsCorruptSegment(t *testing.T) {
	src := memStore(t, "mech")
	appendTo(t, src, "victim", 4.5)
	data, n, err := src.Export("victim")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	dst, err := Open(dir, "mech", 0, fakeFactory())
	if err != nil {
		t.Fatal(err)
	}
	appendTo(t, dst, "local", 1)
	if _, err := dst.Flush(); err != nil {
		t.Fatal(err)
	}

	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x10
	if _, err := dst.Import(corrupt, n); err == nil {
		t.Fatal("corrupt segment imported without error")
	}
	if dst.Has("victim") {
		t.Fatal("corrupt import registered the stream")
	}
	if files := segFiles(t, dir); len(files) != 1 {
		t.Fatalf("corrupt import left files behind: %v", files)
	}

	// Identity mismatches are rejected the same way.
	foreign := memStore(t, "other-mech")
	appendTo(t, foreign, "victim", 4.5)
	fdata, fn, err := foreign.Export("victim")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Import(fdata, fn); err == nil {
		t.Fatal("foreign-mechanism segment imported without error")
	}

	// The local stream and manifest are untouched: flush and reopen still
	// restore exactly the pre-import state.
	if _, err := dst.Flush(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, "mech", 0, fakeFactory())
	if err != nil {
		t.Fatal(err)
	}
	if re.Has("victim") {
		t.Fatal("victim stream survived into the reopened store")
	}
	if got := valuesOf(t, re, "local"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("local stream damaged: %v", got)
	}
}

// TestImportOrphanGC simulates a node dying between importing handoff
// segments and the flush that would adopt them: the imported files are
// unreferenced by the manifest, so boot-time GC removes them and the store
// comes up exactly as the last manifest describes — the half-finished import
// leaves no trace, and the source (which keeps ownership until commit)
// remains the authoritative copy.
func TestImportOrphanGC(t *testing.T) {
	src := memStore(t, "mech")
	appendTo(t, src, "moving", 8)
	data, n, err := src.Export("moving")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	dst, err := Open(dir, "mech", 0, fakeFactory())
	if err != nil {
		t.Fatal(err)
	}
	appendTo(t, dst, "settled", 2)
	if _, err := dst.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Import(data, n); err != nil {
		t.Fatal(err)
	}
	if !dst.Has("moving") {
		t.Fatal("import did not register the stream")
	}
	if files := segFiles(t, dir); len(files) != 2 {
		t.Fatalf("want settled + imported segment files, got %v", files)
	}

	// "Crash": reopen the directory without flushing. The import never made
	// it into a manifest, so its file is an orphan.
	re, err := Open(dir, "mech", 0, fakeFactory())
	if err != nil {
		t.Fatal(err)
	}
	if re.Has("moving") {
		t.Fatal("half-finished import survived the crash")
	}
	if files := segFiles(t, dir); len(files) != 1 {
		t.Fatalf("orphan segment not collected on boot: %v", files)
	}
	if got := valuesOf(t, re, "settled"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("settled stream damaged: %v", got)
	}
}

// TestImportReplacesExisting checks the replace path: importing over a live
// stream supersedes it, and the superseded segment file is collected by the
// next flush.
func TestImportReplacesExisting(t *testing.T) {
	src := memStore(t, "mech")
	appendTo(t, src, "s", 10)
	appendTo(t, src, "s", 11)
	data, n, err := src.Export("s")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	dst, err := Open(dir, "mech", 0, fakeFactory())
	if err != nil {
		t.Fatal(err)
	}
	appendTo(t, dst, "s", 99)
	if _, err := dst.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Import(data, n); err != nil {
		t.Fatal(err)
	}
	if got := valuesOf(t, dst, "s"); len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("replacement not visible: %v", got)
	}
	if _, err := dst.Flush(); err != nil {
		t.Fatal(err)
	}
	if files := segFiles(t, dir); len(files) != 1 {
		t.Fatalf("superseded segment not collected: %v", files)
	}

	// Export of a stream that does not exist.
	if _, _, err := dst.Export("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Export(ghost) = %v, want ErrNotFound", err)
	}
}
