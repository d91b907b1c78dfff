package dass

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
)

// genSeries writes a small deterministic series and returns the file paths.
func genSeries(t *testing.T, dir string, seed int64, files int) []string {
	t.Helper()
	cfg := dasgen.Config{
		Channels: 4, SampleRate: 50, FileSeconds: 1, NumFiles: files,
		Seed: seed, DType: dasf.Float64,
	}
	paths, err := dasgen.Generate(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestScanDirCachedRewriteInPlace rewrites a minute file in place — the
// shape a live deployment produces when an acquisition box re-uploads a
// minute — and asserts the cached scan notices via size or mtime.
func TestScanDirCachedRewriteInPlace(t *testing.T) {
	dir := t.TempDir()
	genSeries(t, dir, 1, 3)
	c1, err := ScanDirCached(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Len() != 3 {
		t.Fatalf("cold scan found %d files", c1.Len())
	}
	target := c1.Entries()[1].Path

	// Rewrite the middle file in place with different content and shape.
	cfg := dasgen.Config{
		Channels: 7, SampleRate: 50, FileSeconds: 1, NumFiles: 1,
		Seed: 99, DType: dasf.Float64,
	}
	arr, err := dasgen.GenerateFileArray(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dasf.WriteData(target, dasf.Meta{
		dasf.KeyTimeStamp: dasf.S("170620100546"),
	}, nil, arr, dasf.Float64); err != nil {
		t.Fatal(err)
	}

	c2, err := ScanDirCached(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 3 {
		t.Fatalf("rescan found %d files", c2.Len())
	}
	var got *Entry
	for i := range c2.Entries() {
		if c2.Entries()[i].Path == target {
			got = &c2.Entries()[i]
		}
	}
	if got == nil {
		t.Fatalf("rewritten file missing from catalog")
	}
	if got.Info.NumChannels != 7 {
		t.Errorf("stale catalog: rewritten file shows %d channels, want 7", got.Info.NumChannels)
	}
	if c2.Trace.Opens == 0 {
		t.Errorf("rescan trusted a rewritten file without re-reading its header")
	}
}

// TestScanDirCachedRacilyClean reproduces the mtime-granularity hole: a
// file rewritten with the same size and the same (coarse) mtime as the
// index recorded. The scanned-at stamp must make the scan distrust entries
// whose mtime is not strictly older than the scan that recorded them.
func TestScanDirCachedRacilyClean(t *testing.T) {
	dir := t.TempDir()
	genSeries(t, dir, 1, 2)
	target := filepath.Join(dir, mustFirstDasf(t, dir))

	// Simulate a coarse filesystem clock that runs ahead of the scan: the
	// file's mtime is in the future relative to the index's scanned-at.
	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(target, future, future); err != nil {
		t.Fatal(err)
	}
	c1, err := ScanDirCached(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := findByPath(t, c1, target).Info.NumChannels

	// Rewrite in place with identical size but different content, and put
	// the mtime back to the exact recorded value — stat alone cannot tell.
	cfg := dasgen.Config{
		Channels: 4, SampleRate: 50, FileSeconds: 1, NumFiles: 1,
		Seed: 77, DType: dasf.Float64,
	}
	arr, err := dasgen.GenerateFileArray(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range arr.Data {
		arr.Data[i] = -arr.Data[i]
	}
	info, _, err := dasf.ReadInfo(target)
	if err != nil {
		t.Fatal(err)
	}
	if err := dasf.WriteData(target, info.Global, nil, arr, dasf.Float64); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(target, future, future); err != nil {
		t.Fatal(err)
	}

	c2, err := ScanDirCached(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := findByPath(t, c2, target).Info.NumChannels; got != old {
		t.Fatalf("channels changed %d → %d unexpectedly", old, got)
	}
	if c2.Trace.Opens == 0 {
		t.Errorf("racily-clean entry was trusted: rescan did zero header reads")
	}
}

func mustFirstDasf(t *testing.T, dir string) string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if filepath.Ext(de.Name()) == ".dasf" {
			return de.Name()
		}
	}
	t.Fatal("no dasf files")
	return ""
}

func findByPath(t *testing.T, c *Catalog, path string) Entry {
	t.Helper()
	for _, e := range c.Entries() {
		if e.Path == path {
			return e
		}
	}
	t.Fatalf("%s not in catalog", path)
	return Entry{}
}

// TestScanDirCachedTolerant drops a garbage file and a half-written header
// into the directory and asserts the tolerant scan skips and reports them
// while the strict scan fails.
func TestScanDirCachedTolerant(t *testing.T) {
	dir := t.TempDir()
	genSeries(t, dir, 1, 3)
	if err := os.WriteFile(filepath.Join(dir, "junk_170620100999.dasf"), []byte("not a dasf"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := ScanDirCached(dir); err == nil {
		t.Fatal("strict scan accepted a corrupt file")
	}
	cat, bad, err := NewScanner(dir).Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 3 {
		t.Fatalf("tolerant scan found %d good files, want 3", cat.Len())
	}
	if len(bad) != 1 || filepath.Base(bad[0].Path) != "junk_170620100999.dasf" {
		t.Fatalf("bad files = %+v", bad)
	}

	// The corrupt file is not cached: fixing it in place is picked up.
	cat2, bad2, err := NewScanner(dir).Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cat2.Len() != 3 || len(bad2) != 1 {
		t.Fatalf("second tolerant scan: %d good, %d bad", cat2.Len(), len(bad2))
	}
}
