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
// metadata I/O the tool exists to minimize. A Scanner keeps the catalog
// index in memory between polls and only re-reads files whose size or
// modification time changed. The JSON index next to the data is the
// index's start-up snapshot, so a one-shot scan (ScanDirCached) is warm
// too.

// IndexFileName is the catalog cache written into a dataset directory.
const IndexFileName = ".dassa_index.json"

// indexEntry is one cached file record.
type indexEntry struct {
	Name      string    `json:"name"` // base name, relative to the dir
	Size      int64     `json:"size"`
	ModTime   int64     `json:"mtime_ns"`
	Timestamp int64     `json:"timestamp"`
	Info      dasf.Info `json:"info"`

	poll int64 // the Scanner poll that last saw the file
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

// Scanner catalogs one directory, poll after poll. It keeps the index —
// one entry per readable .dasf file, stamped with the start of the scan
// that last changed it — in memory, so a poll costs one ReadDir, one lstat
// per name, and a header read only for a name that is new, changed or
// racily clean. The index file is read by the first Scan and written by it
// when that scan read a header or lost a file; after that only Save writes
// it. A Scanner is not safe for concurrent use.
type Scanner struct {
	dir     string
	loaded  bool // the first scan has run
	polls   int64
	stamp   int64 // ScannedAt of the in-memory index
	index   map[string]*indexEntry
	unsaved bool // the in-memory index differs from the file
}

// NewScanner returns a Scanner over dir. No I/O happens until Scan.
func NewScanner(dir string) *Scanner {
	return &Scanner{dir: dir}
}

// ScanDirCached builds a catalog like ScanDir, but consults (and rewrites)
// the directory's index file so unchanged files cost zero metadata reads:
// the one-shot use of a Scanner. The returned catalog's Trace shows only
// the I/O actually performed. Unreadable files abort the scan with an
// error.
func ScanDirCached(dir string) (*Catalog, error) {
	c, _, err := NewScanner(dir).scan(false, nil)
	return c, err
}

// Scan polls the directory. Files whose header fails validation are
// skipped and reported instead of aborting the scan, and are not recorded
// in the index (so the next scan retries them — the right behaviour for a
// file still being copied in). A file for which skip(path) returns true
// (skip may be nil) is treated as absent — not probed, not cataloged, not
// reported bad. This is how an ingester's quarantine list circuit-breaks
// a poisoned file out of the scan path instead of paying its read failure
// on every poll.
func (s *Scanner) Scan(skip func(path string) bool) (*Catalog, []BadFile, error) {
	return s.scan(true, skip)
}

// Save writes the in-memory index to the directory's index file if it
// changed since the file was last written. A process that polls with a
// Scanner calls it on exit, so its successor's first scan is warm.
func (s *Scanner) Save() error {
	if !s.unsaved {
		return nil
	}
	if err := writeIndex(s.dir, s.stamp, s.index); err != nil {
		return err
	}
	s.unsaved = false
	return nil
}

func (s *Scanner) scan(tolerant bool, skip func(path string) bool) (*Catalog, []BadFile, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("dass: %w", err)
	}
	first := !s.loaded
	if first {
		s.index, s.stamp = loadIndex(s.dir)
		s.loaded = true
	}
	// Stamp for the index this scan leaves: captured before any file is
	// statted, so a file modified mid-scan can never look trustworthy.
	scanStart := time.Now().UnixNano()
	s.polls++

	c := &Catalog{entries: make([]Entry, 0, len(s.index)+1)}
	c.Trace.Processes = 1
	var bad []BadFile
	dirty := false
	kept := 0
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".dasf") {
			continue
		}
		path := filepath.Join(s.dir, name)
		if skip != nil && skip(path) {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			if tolerant {
				bad = append(bad, BadFile{Path: path, Err: err})
				continue
			}
			return nil, nil, fmt.Errorf("dass: %w", err)
		}
		e, ok := s.index[name]
		if !ok || e.Size != fi.Size() || e.ModTime != fi.ModTime().UnixNano() || e.ModTime >= s.stamp {
			dirty = true
			delete(s.index, name) // an unreadable file is not recorded
			e, err = readEntry(path, fi, c)
			if err != nil {
				if tolerant {
					bad = append(bad, BadFile{Path: path, Err: err})
					continue
				}
				return nil, nil, err
			}
			s.index[name] = e
		}
		e.poll = s.polls
		kept++
		if e.Info.Kind == dasf.KindData {
			c.entries = append(c.entries, Entry{Path: path, Info: e.Info, Timestamp: e.Timestamp,
				Size: e.Size, ModTime: e.ModTime})
		}
	}
	if kept != len(s.index) {
		dirty = true // deleted (or skipped) files drop out of the index
		for name, e := range s.index {
			if e.poll != s.polls {
				delete(s.index, name)
			}
		}
	}

	sort.Slice(c.entries, func(i, j int) bool {
		if c.entries[i].Timestamp != c.entries[j].Timestamp {
			return c.entries[i].Timestamp < c.entries[j].Timestamp
		}
		return c.entries[i].Path < c.entries[j].Path
	})

	if dirty {
		s.stamp = scanStart
		s.unsaved = true
	}
	if first {
		if err := s.Save(); err != nil {
			return nil, bad, err
		}
	}
	return c, bad, nil
}

// readEntry reads one file's header into an index entry, charging the I/O
// to c's trace.
func readEntry(path string, fi os.FileInfo, c *Catalog) (*indexEntry, error) {
	info, st, err := dasf.ReadInfo(path)
	c.Trace.Opens += st.Opens
	c.Trace.Reads += st.Reads
	c.Trace.BytesRead += st.BytesRead
	if err != nil {
		return nil, err
	}
	e := &indexEntry{Name: fi.Name(), Size: fi.Size(), ModTime: fi.ModTime().UnixNano(), Info: info}
	if info.Kind == dasf.KindData {
		if e.Timestamp, err = entryTimestamp(path, info); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// loadIndex reads dir's index file, with every path re-rooted onto dir. A
// missing, corrupt or old-version index loads as empty and is rebuilt.
func loadIndex(dir string) (map[string]*indexEntry, int64) {
	index := map[string]*indexEntry{}
	raw, err := os.ReadFile(filepath.Join(dir, IndexFileName))
	if err != nil {
		return index, 0
	}
	var idx indexFile
	if json.Unmarshal(raw, &idx) != nil || idx.Version != indexVersion {
		return index, 0
	}
	for i := range idx.Entries {
		e := &idx.Entries[i]
		e.Info.Path = filepath.Join(dir, e.Name)
		for j := range e.Info.Members {
			if !filepath.IsAbs(e.Info.Members[j].Name) {
				e.Info.Members[j].Name = filepath.Join(dir, e.Info.Members[j].Name)
			}
		}
		index[e.Name] = e
	}
	return index, idx.ScannedAt
}

// writeIndex atomically replaces dir's index file with index, stamped.
// Member paths are stored relative where possible so the index survives a
// directory move.
func writeIndex(dir string, stamp int64, index map[string]*indexEntry) error {
	entries := make([]indexEntry, 0, len(index))
	for _, e := range index {
		out := *e
		out.Info.Path = out.Name
		out.Info.Members = append([]dasf.Member(nil), out.Info.Members...)
		for i, m := range out.Info.Members {
			if rel, err := filepath.Rel(dir, m.Name); err == nil && !strings.HasPrefix(rel, "..") {
				out.Info.Members[i].Name = rel
			}
		}
		entries = append(entries, out)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	raw, err := json.Marshal(indexFile{Version: indexVersion, ScannedAt: stamp, Entries: entries})
	if err != nil {
		return fmt.Errorf("dass: %w", err)
	}
	tmp := filepath.Join(dir, IndexFileName+".tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("dass: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, IndexFileName)); err != nil {
		return fmt.Errorf("dass: %w", err)
	}
	return nil
}
