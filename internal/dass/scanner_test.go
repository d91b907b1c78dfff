package dass

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
)

// TestScannerCatalogEquivalence: the catalog a long-lived Scanner keeps in
// memory equals a cold scan of the directory after every poll, over a
// seeded sequence of arrivals, same-size rewrites in place (some visible
// only to the racily-clean rule), deletions, half-copied files and
// quarantine expiries. Its snapshot then loads into a fresh Scanner as the
// same catalog.
func TestScannerCatalogEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { checkScannerEquivalence(t, seed) })
	}
}

func checkScannerEquivalence(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	cfg := dasgen.Config{Channels: 4, SampleRate: 50, FileSeconds: 1, NumFiles: 1, Seed: seed, DType: dasf.Float64}
	next := 0 // the next arrival's file index
	write := func(path string, ts int64, negate bool) {
		arr, err := dasgen.GenerateFileArray(cfg, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if negate {
			for i := range arr.Data {
				arr.Data[i] = -arr.Data[i]
			}
		}
		meta := dasf.Meta{dasf.KeyTimeStamp: dasf.S(fmt.Sprintf("%012d", ts)), dasf.KeySamplingFrequency: dasf.I(50)}
		if err := dasf.WriteData(path, meta, nil, arr, dasf.Float64); err != nil {
			t.Fatal(err)
		}
	}
	// A recorder whose clock runs ahead stamps files in the future: their
	// mtime is never older than a scan, so only the racily-clean rule can
	// tell a same-size rewrite of one.
	ahead := time.Now().Add(time.Hour).Truncate(time.Second)
	// A same-size rewrite with an unchanged past mtime is invisible to
	// stat by design, and the filesystem clock is coarser than the polls;
	// so every other same-size change stamps a past mtime of its own.
	pasts := 0
	touchPast := func(path string) {
		pasts++
		past := time.Unix(1e9+int64(pasts), 0)
		if err := os.Chtimes(path, past, past); err != nil {
			t.Fatal(err)
		}
	}
	names := func() []string {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, de := range des {
			if filepath.Ext(de.Name()) == ".dasf" {
				out = append(out, de.Name())
			}
		}
		return out
	}
	pick := func() (string, bool) {
		ns := names()
		if len(ns) == 0 {
			return "", false
		}
		return filepath.Join(dir, ns[rng.Intn(len(ns))]), true
	}
	quarantine := map[string]int{} // path → the first poll that probes it again
	poll := 0
	skip := func(path string) bool { until, ok := quarantine[path]; return ok && poll < until }

	const polls = 80
	s := NewScanner(dir)
	var last *Catalog
	for ; poll < polls; poll++ {
		for ops := rng.Intn(3); ops > 0; ops-- {
			switch op := rng.Intn(10); {
			case op < 3: // arrival
				path := filepath.Join(dir, fmt.Sprintf("west_%012d.dasf", 170620100000+int64(next)))
				write(path, 170620100000+int64(next), false)
				next++
				if rng.Intn(4) == 0 {
					if err := os.Chtimes(path, ahead, ahead); err != nil {
						t.Fatal(err)
					}
				}
			case op < 5: // same-size rewrite in place, with a new header timestamp
				path, ok := pick()
				if !ok {
					continue
				}
				if _, _, err := dasf.ReadInfo(path); err != nil {
					continue // half copied: finishing it is the last case
				}
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				write(path, 170620200000+int64(rng.Intn(1000)), rng.Intn(2) == 0)
				if fi.ModTime().Before(ahead) {
					touchPast(path)
				} else if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
					t.Fatal(err) // racily clean: size and mtime as recorded
				}
				if now, err := os.Stat(path); err != nil || now.Size() != fi.Size() {
					t.Fatalf("rewrite changed the size of %s", path)
				}
			case op < 6: // deletion
				if path, ok := pick(); ok {
					if err := os.Remove(path); err != nil {
						t.Fatal(err)
					}
				}
			case op < 8: // half-copied file; a later poll may see it completed
				path, ok := pick()
				if !ok {
					continue
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(2) == 0 {
					quarantine[path] = poll + 1 + rng.Intn(4)
				}
			default: // finish copying a half-copied file, or quarantine a good one
				if path, ok := pick(); ok {
					if _, _, err := dasf.ReadInfo(path); err != nil {
						write(path, 170620300000+int64(rng.Intn(1000)), false)
						touchPast(path)
					} else {
						quarantine[path] = poll + 1 + rng.Intn(4)
					}
				}
			}
		}
		cat, _, err := s.Scan(skip)
		if err != nil {
			t.Fatal(err)
		}
		requireSameCatalog(t, fmt.Sprintf("poll %d", poll), cat, coldScan(t, dir, skip))
		last = cat
	}

	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, IndexFileName))
	if err != nil {
		t.Fatal(err)
	}
	var idx indexFile
	if err := json.Unmarshal(raw, &idx); err != nil || len(idx.Entries) != last.Len() {
		t.Fatalf("snapshot holds %d entries for %d files (err %v)", len(idx.Entries), last.Len(), err)
	}
	poll = polls - 1 // the last poll's quarantine list
	fresh, _, err := NewScanner(dir).Scan(skip)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCatalog(t, "fresh scanner over the snapshot", fresh, last)
	racy := 0
	for _, e := range last.Entries() {
		if e.ModTime >= ahead.UnixNano() {
			racy++
		}
	}
	if fresh.Trace.Opens != int64(racy) {
		t.Errorf("fresh scanner read %d headers; only the %d files stamped ahead of the clock needed it",
			fresh.Trace.Opens, racy)
	}
}

// coldScan is the reference catalog: every readable, not skipped file in
// dir, each header read afresh.
func coldScan(t *testing.T, dir string, skip func(string) bool) *Catalog {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, de := range des {
		path := filepath.Join(dir, de.Name())
		if filepath.Ext(path) != ".dasf" || skip(path) {
			continue
		}
		if _, _, err := dasf.ReadInfo(path); err == nil {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	cat, err := ScanFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func requireSameCatalog(t *testing.T, when string, got, want *Catalog) {
	t.Helper()
	g, w := got.Entries(), want.Entries()
	if len(g) != len(w) {
		t.Fatalf("%s: %d entries, want %d", when, len(g), len(w))
	}
	for i := range g {
		if !reflect.DeepEqual(g[i], w[i]) {
			t.Fatalf("%s: entry %d\n got %+v\nwant %+v", when, i, g[i], w[i])
		}
	}
}

// BenchmarkScanOneArrival is one ingest poll that sees one new file in a
// directory of n tiny files: a long-lived Scanner (the index in memory)
// against a one-shot ScanDirCached per poll, which decodes and rewrites the
// whole index file as every poll did before the Scanner. The directory is
// trimmed back to n files, untimed, whenever arrivals grew it by a tenth.
func BenchmarkScanOneArrival(b *testing.B) {
	tmpl := filepath.Join(b.TempDir(), "tmpl.dasf")
	if err := dasf.WriteData(tmpl, dasf.Meta{}, nil, dasf.NewArray2D(1, 1), dasf.Float32); err != nil {
		b.Fatal(err)
	}
	raw, err := os.ReadFile(tmpl)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{100, 1000, 10000} {
		dir := b.TempDir()
		name := func(i int) string { return filepath.Join(dir, fmt.Sprintf("f_%012d.dasf", 170000000000+i)) }
		for i := 0; i < n; i++ {
			if err := os.WriteFile(name(i), raw, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		s := NewScanner(dir)
		polls := map[string]func() error{
			"scanner": func() error { _, _, err := s.Scan(nil); return err },
			"oneshot": func() error { _, err := ScanDirCached(dir); return err },
		}
		for _, path := range []string{"scanner", "oneshot"} {
			poll := polls[path]
			b.Run(fmt.Sprintf("files=%d/%s", n, path), func(b *testing.B) {
				b.ReportAllocs()
				files := n + n/10 + 1 // trim (a no-op) and warm up first
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if files > n+n/10 {
						for ; files > n; files-- {
							if err := os.Remove(name(files - 1)); err != nil && !os.IsNotExist(err) {
								b.Fatal(err)
							}
						}
						if err := poll(); err != nil {
							b.Fatal(err)
						}
					}
					if err := os.WriteFile(name(files), raw, 0o644); err != nil {
						b.Fatal(err)
					}
					files++
					b.StartTimer()
					if err := poll(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
