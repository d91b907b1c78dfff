package dass

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
)

// The dass fuzz targets cover the two places untrusted bytes enter the
// storage engine above the file format itself: the on-disk catalog index
// cache (attacker- or corruption-controlled JSON that ScanDirCached trusts
// for cache hits) and the /search regex pattern (straight off the wire in
// dassd). Errors are expected on hostile input; panics are the bugs.

// fuzzIndexSeed generates a one-file dataset once and returns the raw
// bytes of its data file and of a genuinely written index, so the fuzzer
// starts from the real on-disk grammar.
func fuzzIndexSeed(f *testing.F) (dataName string, dataRaw, indexRaw []byte) {
	f.Helper()
	dir := f.TempDir()
	cfg := dasgen.Config{
		Channels: 4, SampleRate: 50, FileSeconds: 1, NumFiles: 1,
		Seed: 11, DType: dasf.Float64,
	}
	paths, err := dasgen.Generate(dir, cfg, nil)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := ScanDirCached(dir); err != nil {
		f.Fatal(err)
	}
	dataRaw, err = os.ReadFile(paths[0])
	if err != nil {
		f.Fatal(err)
	}
	indexRaw, err = os.ReadFile(filepath.Join(dir, IndexFileName))
	if err != nil {
		f.Fatal(err)
	}
	return filepath.Base(paths[0]), dataRaw, indexRaw
}

// FuzzIndexCache hands the fuzzer full control of .dassa_index.json in a
// directory that also holds one real data file. Both the strict and the
// tolerant scan must survive any index bytes — ignore-and-rebuild is the
// contract for a corrupt cache — and the rebuilt index must then be
// readable by a second scan.
func FuzzIndexCache(f *testing.F) {
	dataName, dataRaw, indexRaw := fuzzIndexSeed(f)
	f.Add(indexRaw)
	f.Add([]byte("{}"))
	f.Add([]byte("null"))
	f.Add([]byte(`{"version":2,"scanned_at_ns":-1,"entries":[{"name":"` + dataName + `","size":-9,"mtime_ns":0,"timestamp":999999999999999,"info":{"kind":1}}]}`))
	f.Add(indexRaw[:len(indexRaw)/2])
	f.Add([]byte(strings.Repeat("[", 64)))

	f.Fuzz(func(t *testing.T, idx []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, dataName), dataRaw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, IndexFileName), idx, 0o644); err != nil {
			t.Fatal(err)
		}
		cat, err := ScanDirCached(dir)
		if err == nil && cat.Len() != 1 {
			t.Fatalf("scan over 1 data file cataloged %d entries", cat.Len())
		}
		if _, _, err := NewScanner(dir).Scan(nil); err != nil {
			// Tolerant scans only fail on directory-level errors; a bad
			// index alone must not surface.
			t.Fatalf("tolerant scan failed under fuzzed index: %v", err)
		}
		// The scan above rewrote the index; it must round-trip.
		if _, _, err := NewScanner(dir).Scan(nil); err != nil {
			t.Fatalf("rescan of rebuilt index failed: %v", err)
		}
	})
}

// FuzzSearchRegex feeds arbitrary patterns to the catalog search — the
// string dassd's /search passes through verbatim. Compile errors and the
// length cap are fine; panics or unbounded machines are not.
func FuzzSearchRegex(f *testing.F) {
	cat := CatalogOf([]Entry{
		{Path: "a.dasf", Timestamp: 170728224510},
		{Path: "b.dasf", Timestamp: 170728224610},
		{Path: "c.dasf", Timestamp: 170728224710},
	})
	f.Add("170728224[567]10")
	f.Add("17072822.*")
	f.Add("(((")
	f.Add(")")
	f.Add("(?P<x>1)(?P<x>2)")
	f.Add(strings.Repeat("(a|b)", 100))
	f.Add(strings.Repeat("a", maxSearchPattern+1))

	f.Fuzz(func(t *testing.T, pattern string) {
		matches, err := cat.SearchRegex(pattern)
		if len(pattern) > maxSearchPattern && err == nil {
			t.Fatalf("%d-byte pattern accepted past the %d cap", len(pattern), maxSearchPattern)
		}
		if err == nil && len(matches) > cat.Len() {
			t.Fatalf("%d matches from a %d-entry catalog", len(matches), cat.Len())
		}
	})
}
