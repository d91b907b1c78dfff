package dass

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dassa/internal/dasf"
)

// A year-long DAS deployment accumulates hundreds of thousands of files;
// re-reading every header on each das_search invocation wastes exactly the
// metadata I/O the tool exists to minimize. ScanDirCached keeps a JSON
// index next to the data and only re-reads files whose size or
// modification time changed.

// IndexFileName is the catalog cache written into a dataset directory.
const IndexFileName = ".dassa_index.json"

// indexEntry is one cached file record.
type indexEntry struct {
	Name      string    `json:"name"` // base name, relative to the dir
	Size      int64     `json:"size"`
	ModTime   int64     `json:"mtime_ns"`
	Timestamp int64     `json:"timestamp"`
	Info      dasf.Info `json:"info"`
}

type indexFile struct {
	Version int `json:"version"`
	// ScannedAt is the wall clock (ns) captured when the scan that wrote
	// this index started. A file whose mtime is not strictly older than it
	// may have been rewritten in place inside the same mtime granule as the
	// scan that recorded it — the "racily clean" problem git's index solves
	// the same way — so such entries are re-verified instead of trusted.
	ScannedAt int64        `json:"scanned_at_ns"`
	Entries   []indexEntry `json:"entries"`
}

// indexVersion is the current on-disk index format. Older versions are
// ignored and rebuilt.
const indexVersion = 2

// BadFile records a file a tolerant scan skipped: its path and why it was
// unreadable. A continuously ingesting service sees these routinely — a
// half-copied minute file is corrupt now and fine on the next poll.
type BadFile struct {
	Path string
	Err  error
}

// ScanDirCached builds a catalog like ScanDir, but consults (and rewrites)
// the directory's index file so unchanged files cost zero metadata reads.
// The returned catalog's Trace shows only the I/O actually performed.
// Unreadable files abort the scan with an error.
func ScanDirCached(dir string) (*Catalog, error) {
	c, _, err := scanDirCached(dir, false, nil)
	return c, err
}

// ScanDirCachedTolerantSkip is ScanDirCached for an ingest loop: files
// whose header fails validation are skipped and reported instead of
// aborting the scan, and are not recorded in the index (so the next scan
// retries them — the right behaviour for a file still being copied in). A
// file for which skip(path) returns true (skip may be nil) is treated as
// absent — not probed, not cataloged, not reported bad. This is how an
// ingester's quarantine list circuit-breaks a poisoned file out of the
// scan path instead of paying its read failure on every poll.
func ScanDirCachedTolerantSkip(dir string, skip func(path string) bool) (*Catalog, []BadFile, error) {
	return scanDirCached(dir, true, skip)
}

func scanDirCached(dir string, tolerant bool, skip func(path string) bool) (*Catalog, []BadFile, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("dass: %w", err)
	}
	cached := map[string]indexEntry{}
	var scannedAt int64
	if raw, err := os.ReadFile(filepath.Join(dir, IndexFileName)); err == nil {
		var idx indexFile
		if json.Unmarshal(raw, &idx) == nil && idx.Version == indexVersion {
			scannedAt = idx.ScannedAt
			for _, e := range idx.Entries {
				cached[e.Name] = e
			}
		}
		// A corrupt or old-version index is simply ignored and rebuilt.
	}
	// Stamp for the index this scan writes: captured before any file is
	// statted, so a file modified mid-scan can never look trustworthy.
	scanStart := time.Now().UnixNano()

	c := &Catalog{}
	c.Trace.Processes = 1
	var bad []BadFile
	var fresh []indexEntry
	dirty := false
	seen := map[string]bool{}
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".dasf") {
			continue
		}
		if skip != nil && skip(filepath.Join(dir, de.Name())) {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			if tolerant {
				bad = append(bad, BadFile{Path: filepath.Join(dir, de.Name()), Err: err})
				continue
			}
			return nil, nil, fmt.Errorf("dass: %w", err)
		}
		seen[de.Name()] = true
		if e, ok := cached[de.Name()]; ok && e.Size == fi.Size() &&
			e.ModTime == fi.ModTime().UnixNano() && e.ModTime < scannedAt {
			// Cache hit: no I/O. Re-root the stored path onto this dir.
			e.Info.Path = filepath.Join(dir, de.Name())
			rerootMembers(&e.Info, dir)
			if e.Info.Kind == dasf.KindData {
				c.entries = append(c.entries, Entry{Path: e.Info.Path, Info: e.Info, Timestamp: e.Timestamp,
					Size: e.Size, ModTime: e.ModTime})
			}
			fresh = append(fresh, e)
			continue
		}
		dirty = true
		path := filepath.Join(dir, de.Name())
		info, st, err := dasf.ReadInfo(path)
		c.Trace.Opens += st.Opens
		c.Trace.Reads += st.Reads
		c.Trace.BytesRead += st.BytesRead
		if err != nil {
			if tolerant {
				bad = append(bad, BadFile{Path: path, Err: err})
				continue
			}
			return nil, nil, err
		}
		e := indexEntry{
			Name: de.Name(), Size: fi.Size(), ModTime: fi.ModTime().UnixNano(), Info: info,
		}
		if info.Kind == dasf.KindData {
			ts, err := entryTimestamp(path, info)
			if err != nil {
				if tolerant {
					bad = append(bad, BadFile{Path: path, Err: err})
					continue
				}
				return nil, nil, err
			}
			e.Timestamp = ts
			c.entries = append(c.entries, Entry{Path: path, Info: info, Timestamp: ts,
				Size: e.Size, ModTime: e.ModTime})
		}
		fresh = append(fresh, e)
	}
	for name := range cached {
		if !seen[name] {
			dirty = true // deleted files drop out of the index
		}
	}

	sort.Slice(c.entries, func(i, j int) bool {
		if c.entries[i].Timestamp != c.entries[j].Timestamp {
			return c.entries[i].Timestamp < c.entries[j].Timestamp
		}
		return c.entries[i].Path < c.entries[j].Path
	})

	if dirty {
		sort.Slice(fresh, func(i, j int) bool { return fresh[i].Name < fresh[j].Name })
		// Store member paths relative where possible so the index survives
		// a directory move.
		for i := range fresh {
			fresh[i].Info.Path = fresh[i].Name
			relMembers(&fresh[i].Info, dir)
		}
		raw, err := json.Marshal(indexFile{Version: indexVersion, ScannedAt: scanStart, Entries: fresh})
		if err != nil {
			return nil, bad, fmt.Errorf("dass: %w", err)
		}
		tmp := filepath.Join(dir, IndexFileName+".tmp")
		if err := os.WriteFile(tmp, raw, 0o644); err != nil {
			return nil, bad, fmt.Errorf("dass: %w", err)
		}
		if err := os.Rename(tmp, filepath.Join(dir, IndexFileName)); err != nil {
			return nil, bad, fmt.Errorf("dass: %w", err)
		}
	}
	return c, bad, nil
}

// relMembers rewrites absolute member paths under dir as relative names.
func relMembers(info *dasf.Info, dir string) {
	for i := range info.Members {
		if rel, err := filepath.Rel(dir, info.Members[i].Name); err == nil && !strings.HasPrefix(rel, "..") {
			info.Members[i].Name = rel
		}
	}
}

// rerootMembers resolves relative member names against dir.
func rerootMembers(info *dasf.Info, dir string) {
	for i := range info.Members {
		if !filepath.IsAbs(info.Members[i].Name) {
			info.Members[i].Name = filepath.Join(dir, info.Members[i].Name)
		}
	}
}
