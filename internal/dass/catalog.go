// Package dass is DASSA's storage engine: searching the many small files a
// DAS deployment produces (das_search), merging them into real (RCA) or
// virtual (VCA) concatenated arrays, subsetting with logical array views
// (LAV), and reading the result in parallel with either the baseline
// "collective-per-file" method or the paper's "communication-avoiding"
// method (§IV).
package dass

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"dassa/internal/dasf"
	"dassa/internal/pfs"
)

// Entry is one data file in a catalog: its path, parsed metadata, the
// acquisition timestamp extracted from the metadata (or the file name as a
// fallback), and the file's size and modification time (ns) as the scan
// statted them — the stamp that tells a rewrite in place from the file the
// metadata was read from.
type Entry struct {
	Path      string
	Info      dasf.Info
	Timestamp int64 // yymmddhhmmss
	Size      int64
	ModTime   int64
}

// Catalog is a time-ordered index of DAS data files. Building it touches
// only file metadata — the das_search cheapness the paper's Figure 6
// measures comes from exactly this.
type Catalog struct {
	entries []Entry
	// Trace records the metadata I/O spent building the catalog.
	Trace pfs.Trace
}

// timestampRe extracts a 12-digit timestamp from a file name like
// westSac_170728224510.dasf.
var timestampRe = regexp.MustCompile(`(\d{12})`)

// entryTimestamp pulls the acquisition timestamp from metadata, falling
// back to the file name.
func entryTimestamp(path string, info dasf.Info) (int64, error) {
	if v, ok := info.Global[dasf.KeyTimeStamp]; ok {
		s := strings.TrimSpace(v.String())
		if ts, err := strconv.ParseInt(s, 10, 64); err == nil {
			return ts, nil
		}
	}
	if m := timestampRe.FindString(filepath.Base(path)); m != "" {
		return strconv.ParseInt(m, 10, 64)
	}
	return 0, fmt.Errorf("dass: %s: no timestamp in metadata or file name", path)
}

// ScanDir builds a catalog of all DASF data files directly inside dir,
// sorted by timestamp. Virtual (VCA) files are skipped — they reference
// data files, they are not data. Unreadable files are reported as errors.
func ScanDir(dir string) (*Catalog, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dass: %w", err)
	}
	var paths []string
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".dasf") {
			continue
		}
		paths = append(paths, filepath.Join(dir, de.Name()))
	}
	return ScanFiles(paths)
}

// ScanFiles builds a catalog from an explicit file list (metadata only).
func ScanFiles(paths []string) (*Catalog, error) {
	c := &Catalog{}
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, fmt.Errorf("dass: %w", err)
		}
		info, st, err := dasf.ReadInfo(p)
		if err != nil {
			return nil, err
		}
		c.Trace.Opens += st.Opens
		c.Trace.Reads += st.Reads
		c.Trace.BytesRead += st.BytesRead
		if info.Kind != dasf.KindData {
			continue
		}
		ts, err := entryTimestamp(p, info)
		if err != nil {
			return nil, err
		}
		c.entries = append(c.entries, Entry{Path: p, Info: info, Timestamp: ts,
			Size: fi.Size(), ModTime: fi.ModTime().UnixNano()})
	}
	sort.Slice(c.entries, func(i, j int) bool {
		if c.entries[i].Timestamp != c.entries[j].Timestamp {
			return c.entries[i].Timestamp < c.entries[j].Timestamp
		}
		return c.entries[i].Path < c.entries[j].Path
	})
	c.Trace.Processes = 1
	return c, nil
}

// CatalogOf builds a catalog directly from already-parsed entries — the
// service layer's retention window trims a scanned catalog this way. The
// entries are copied and time-sorted; no I/O happens.
func CatalogOf(entries []Entry) *Catalog {
	c := &Catalog{entries: append([]Entry(nil), entries...)}
	sort.Slice(c.entries, func(i, j int) bool {
		if c.entries[i].Timestamp != c.entries[j].Timestamp {
			return c.entries[i].Timestamp < c.entries[j].Timestamp
		}
		return c.entries[i].Path < c.entries[j].Path
	})
	return c
}

// Len returns the number of cataloged files.
func (c *Catalog) Len() int { return len(c.entries) }

// Entries returns the full time-ordered entry list.
func (c *Catalog) Entries() []Entry { return c.entries }

// SearchStartCount implements das_search -s <timestamp> -c <count>: the
// first count files whose timestamp is ≥ start. Fewer may be returned if
// the catalog runs out.
func (c *Catalog) SearchStartCount(start int64, count int) []Entry {
	if count <= 0 {
		return nil
	}
	i := sort.Search(len(c.entries), func(i int) bool {
		return c.entries[i].Timestamp >= start
	})
	j := min(i+count, len(c.entries))
	out := make([]Entry, j-i)
	copy(out, c.entries[i:j])
	return out
}

// SearchRange returns the entries with start ≤ timestamp < end — the
// "data of a few hours, days, or months" selection §IV describes as the
// common case before merging.
func (c *Catalog) SearchRange(start, end int64) []Entry {
	i := sort.Search(len(c.entries), func(i int) bool {
		return c.entries[i].Timestamp >= start
	})
	j := sort.Search(len(c.entries), func(j int) bool {
		return c.entries[j].Timestamp >= end
	})
	if i >= j {
		return nil
	}
	out := make([]Entry, j-i)
	copy(out, c.entries[i:j])
	return out
}

// maxSearchPattern bounds a SearchRegex pattern. Timestamps are 12 digits;
// any legitimate selector is far shorter than this, while an unbounded
// pattern lets one request make regexp.Compile build an arbitrarily large
// machine (the pattern reaches dassd's /search straight off the wire).
const maxSearchPattern = 256

// SearchRegex implements das_search -e <pattern>: entries whose 12-digit
// timestamp string matches the (anchored) pattern. The paper's example
// `das_search -e 170728224[567]10` selects three specific minutes.
func (c *Catalog) SearchRegex(pattern string) ([]Entry, error) {
	if len(pattern) > maxSearchPattern {
		return nil, fmt.Errorf("dass: search pattern of %d bytes exceeds the %d-byte limit",
			len(pattern), maxSearchPattern)
	}
	re, err := regexp.Compile("^(?:" + pattern + ")$")
	if err != nil {
		return nil, fmt.Errorf("dass: bad search pattern: %w", err)
	}
	var out []Entry
	for _, e := range c.entries {
		if re.MatchString(fmt.Sprintf("%012d", e.Timestamp)) {
			out = append(out, e)
		}
	}
	return out, nil
}

// validateContiguous checks that the entries form a mergeable series: same
// channel count and dtype throughout.
func validateContiguous(entries []Entry) error {
	if len(entries) == 0 {
		return fmt.Errorf("dass: no files to merge")
	}
	first := entries[0].Info
	for i, e := range entries[1:] {
		if e.Info.NumChannels != first.NumChannels {
			return fmt.Errorf("dass: %s has %d channels, %s has %d — cannot merge",
				e.Path, e.Info.NumChannels, entries[0].Path, first.NumChannels)
		}
		if e.Info.DType != first.DType {
			return fmt.Errorf("dass: %s stores %v, %s stores %v — cannot merge",
				e.Path, e.Info.DType, entries[0].Path, first.DType)
		}
		if e.Timestamp < entries[i].Timestamp {
			return fmt.Errorf("dass: entries out of time order at %s", e.Path)
		}
	}
	return nil
}
