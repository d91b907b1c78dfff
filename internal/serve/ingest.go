package serve

import (
	"context"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dassa/internal/dass"
	"dassa/internal/obs"
	"dassa/internal/obs/trace"
)

// IngestConfig sizes the polling ingester.
type IngestConfig struct {
	// Dir is the watched directory newly recorded minute files land in.
	Dir string
	// Poll is the scan interval (default 2s).
	Poll time.Duration
	// RetainFiles bounds the served catalog to the newest N files; zero
	// keeps everything. Files aging out are dropped from the catalog (and
	// the block cache), never deleted from disk.
	RetainFiles int
	// LiveVCA maintains a rolling virtual concatenated array over the
	// ingested series (CreateVCA once, AppendToVCA incrementally) at
	// Dir/<LiveVCAName>, so offline tools see the same merged view the
	// daemon serves.
	LiveVCA bool
	// QuarantineAfter circuit-breaks a file out of the scan path after this
	// many consecutive failed scans: a poisoned minute stops costing a read
	// failure on every poll and is re-probed on a backoff schedule instead.
	// Zero disables quarantine (every scan retries every bad file — the
	// pre-quarantine behaviour).
	QuarantineAfter int
	// QuarantineBackoff is the first re-probe delay after a file enters
	// quarantine; it doubles on every failed probe (default 4×Poll).
	QuarantineBackoff time.Duration
	// QuarantineMaxBackoff caps the probe delay (default 5m).
	QuarantineMaxBackoff time.Duration
	// Log receives structured ingest events; nil silences them.
	Log *slog.Logger
}

// LiveVCAName is the rolling VCA the ingester maintains inside the watched
// directory when IngestConfig.LiveVCA is set.
const LiveVCAName = "live.vca.dasf"

// IngestStats is a point-in-time snapshot of the ingest loop's counters.
type IngestStats struct {
	Scans         int64 `json:"scans"`
	FilesTotal    int   `json:"files_total"`    // currently served catalog size
	FilesIngested int64 `json:"files_ingested"` // new files seen over the daemon's life
	FilesChanged  int64 `json:"files_changed"`  // in-place rewrites detected
	FilesRemoved  int64 `json:"files_removed"`  // deletions + retention drops
	BadFiles      int   `json:"bad_files"`      // skipped by the last scan
	VCAAppends    int64 `json:"vca_appends"`
	VCAErrors     int64 `json:"vca_errors"`
	// QuarantinedFiles counts files currently circuit-broken out of the
	// catalog; QuarantineEvents counts entries into quarantine and
	// ReadmittedFiles counts clean-probe exits, over the daemon's life.
	QuarantinedFiles int   `json:"quarantined_files"`
	QuarantineEvents int64 `json:"quarantine_events"`
	ReadmittedFiles  int64 `json:"readmitted_files"`
	// LagMS is the newest ingested file's latency: time between its mtime
	// and the scan that cataloged it. -1 until a file has been ingested.
	LagMS int64 `json:"ingest_lag_ms"`
	// LastScanUnixMS and LastScanDurMS describe the most recent poll.
	LastScanUnixMS int64 `json:"last_scan_unix_ms"`
	LastScanDurMS  int64 `json:"last_scan_dur_ms"`
}

// fileStamp is what the ingester remembers per cataloged file to detect
// in-place change cheaply (the scan itself re-validates via the index). Size
// and mtime are the index's own staleness test, so a rewrite that keeps the
// header is seen as exactly the change the index re-parsed the file for.
type fileStamp struct {
	timestamp     int64
	samples       int
	offset        int64
	size, modTime int64
}

// quarState tracks one misbehaving file through the quarantine state
// machine: counting (consecutive failed scans below the threshold) →
// quarantined (skipped by scans, re-probed with exponential backoff) →
// readmitted (one clean probe deletes the entry). Owned by the scanner.
type quarState struct {
	fails       int // consecutive failed scans/probes
	quarantined bool
	since       time.Time     // when the file entered quarantine
	backoff     time.Duration // current probe delay
	nextProbe   time.Time     // earliest next scan that re-reads the file
	lastErr     string
}

// QuarantinedFile is the /status view of one quarantined file.
type QuarantinedFile struct {
	Path        string `json:"path"`
	Fails       int    `json:"fails"` // consecutive failures, threshold included
	SinceUnixMS int64  `json:"since_unix_ms"`
	NextProbeMS int64  `json:"next_probe_unix_ms"`
	LastErr     string `json:"last_err"`
}

// Ingester polls a directory for newly arriving DASF files and maintains
// the live catalog the HTTP handlers query. All methods are safe for
// concurrent use. Scans do all their filesystem work outside ing.mu
// (lockio: no I/O while a lock is held) — a slow disk must never stall
// the request handlers reading the catalog; the lock is only taken to
// swap in the finished snapshot.
type Ingester struct {
	cfg   IngestConfig
	cache *BlockCache // drops a file's blocks when it changes or leaves (nil: none)
	log   *slog.Logger

	// scanning coalesces concurrent ScanOnce calls: while one scan runs,
	// further calls are no-ops. The scanner owns scan/known/vcaTail/vcaSeen/
	// quar, so they need no lock.
	scanning atomic.Bool
	scan     *dass.Scanner // the catalog index, kept between polls
	known    map[string]fileStamp
	vcaTail  int64 // newest member timestamp in the live VCA
	vcaSeen  map[string]bool
	quar     map[string]*quarState

	mu  sync.RWMutex // guards cat, bad, quarView, stats only
	cat *dass.Catalog
	bad []dass.BadFile
	// quarView is the published snapshot of the quarantine list, rebuilt by
	// the scanner each cycle (the live map is scanner-owned).
	quarView []QuarantinedFile
	stats    IngestStats
}

// NewIngester builds an ingester over dir; a file that changes or leaves the
// catalog is invalidated in cache (nil: no invalidation hook). Call
// ScanOnce or Run to populate the catalog.
func NewIngester(cfg IngestConfig, cache *BlockCache) *Ingester {
	if cfg.Poll <= 0 {
		cfg.Poll = 2 * time.Second
	}
	if cfg.QuarantineBackoff <= 0 {
		cfg.QuarantineBackoff = 4 * cfg.Poll
	}
	if cfg.QuarantineMaxBackoff <= 0 {
		cfg.QuarantineMaxBackoff = 5 * time.Minute
	}
	return &Ingester{
		cfg:     cfg,
		cache:   cache,
		log:     obs.OrNop(cfg.Log),
		cat:     dass.CatalogOf(nil),
		scan:    dass.NewScanner(cfg.Dir),
		known:   map[string]fileStamp{},
		vcaSeen: map[string]bool{},
		quar:    map[string]*quarState{},
	}
}

// Run polls until ctx is cancelled. The first scan happens immediately.
// On the way out it writes the catalog index snapshot, so the next start
// reads headers only for files that arrived since.
func (ing *Ingester) Run(ctx context.Context) {
	t := time.NewTicker(ing.cfg.Poll)
	defer t.Stop()
	for {
		if err := ing.ScanOnce(); err != nil {
			ing.log.Error("ingest scan failed", "err", err)
		}
		select {
		case <-ctx.Done():
			ing.saveIndex()
			return
		case <-t.C:
		}
	}
}

// saveIndex writes the scanner's index snapshot under the scanning guard,
// waiting out a scan in flight.
func (ing *Ingester) saveIndex() {
	for !ing.scanning.CompareAndSwap(false, true) {
		time.Sleep(time.Millisecond)
	}
	defer ing.scanning.Store(false)
	if err := ing.scan.Save(); err != nil {
		ing.log.Error("ingest index snapshot failed", "err", err)
	}
}

// ScanOnce runs one poll cycle: tolerant cached scan, cache invalidation
// for changed/removed files, retention trim, and live-VCA extension. All
// filesystem work happens before the catalog lock is taken; the lock only
// publishes the finished snapshot. A ScanOnce that races another returns
// immediately — the in-flight scan will surface the same state.
func (ing *Ingester) ScanOnce() error {
	if !ing.scanning.CompareAndSwap(false, true) {
		return nil
	}
	defer ing.scanning.Store(false)

	t0 := time.Now()
	cat, bad, err := ing.scan.Scan(ing.quarantineSkip(t0))
	if err != nil {
		return err
	}
	entries := cat.Entries()
	// One trace ID per scan cycle: every quarantine decision this pass
	// makes logs the same id, so a burst of state changes reads as one
	// correlated event rather than interleaved noise.
	scanID := trace.NewID()
	quarEvents, readmitted, quarList := ing.updateQuarantine(t0, entries, bad, scanID)

	// Retention: keep the newest N files in the served catalog. Trimmed
	// files drop out of `seen` below, so the diff counts them as removed
	// and invalidates their cached blocks.
	if n := ing.cfg.RetainFiles; n > 0 && len(entries) > n {
		entries = entries[len(entries)-n:]
	}

	// Diff against what we served before: invalidate cached blocks of
	// changed files, count arrivals, measure ingest lag (from the mtime the
	// scan statted). known is owned by the (single) active scanner, so no
	// lock is held across the cache invalidations.
	var ingested, changed, removed int64
	seen := map[string]bool{}
	var newest int64 = -1
	var lag int64 = -1
	for _, e := range entries {
		seen[e.Path] = true
		st, ok := ing.known[e.Path]
		now := fileStamp{timestamp: e.Timestamp, samples: e.Info.NumSamples, offset: e.Info.DataOffset,
			size: e.Size, modTime: e.ModTime}
		switch {
		case !ok:
			ingested++
			if l := time.Since(time.Unix(0, e.ModTime)).Milliseconds(); l > lag {
				lag = l
			}
			if e.Timestamp > newest {
				newest = e.Timestamp
			}
		case st != now:
			changed++
			ing.invalidate(e.Path)
		}
		ing.known[e.Path] = now
	}
	for path := range ing.known {
		if !seen[path] {
			delete(ing.known, path)
			removed++
			ing.invalidate(path)
		}
	}

	var vcaAppends, vcaErrors int64
	if ing.cfg.LiveVCA {
		vcaAppends, vcaErrors = ing.extendLiveVCA(entries)
	}

	// Publish: the only part of the scan that runs under the lock.
	ing.mu.Lock()
	ing.cat = dass.CatalogOf(entries)
	ing.bad = bad
	ing.quarView = quarList
	ing.stats.QuarantinedFiles = len(quarList)
	ing.stats.QuarantineEvents += quarEvents
	ing.stats.ReadmittedFiles += readmitted
	ing.stats.Scans++
	ing.stats.FilesIngested += ingested
	ing.stats.FilesChanged += changed
	ing.stats.FilesRemoved += removed
	ing.stats.VCAAppends += vcaAppends
	ing.stats.VCAErrors += vcaErrors
	ing.stats.FilesTotal = len(entries)
	ing.stats.BadFiles = len(bad)
	if lag >= 0 {
		ing.stats.LagMS = lag
	} else if ing.stats.Scans == 1 {
		ing.stats.LagMS = -1
	}
	ing.stats.LastScanUnixMS = t0.UnixMilli()
	ing.stats.LastScanDurMS = time.Since(t0).Milliseconds()
	totalIngested := ing.stats.FilesIngested
	ing.mu.Unlock()

	if newest >= 0 {
		ing.log.Info("ingest scan",
			"files", len(entries), "ingested", totalIngested,
			"bad", len(bad), "newest", newest, "lag_ms", lag)
	}
	return nil
}

// invalidate drops everything the cache holds of one file.
func (ing *Ingester) invalidate(path string) {
	if ing.cache != nil {
		ing.cache.InvalidatePath(path)
	}
}

// quarantineSkip returns the scan's skip hook: quarantined files whose next
// probe lies in the future are treated as absent, so a poisoned file costs
// nothing until its backoff expires. Runs on the scanner's side of the
// fence (quar is scanner-owned).
func (ing *Ingester) quarantineSkip(now time.Time) func(path string) bool {
	if ing.cfg.QuarantineAfter <= 0 {
		return nil
	}
	return func(path string) bool {
		st, ok := ing.quar[path]
		return ok && st.quarantined && now.Before(st.nextProbe)
	}
}

// updateQuarantine advances the quarantine state machine with one scan's
// outcome: bad files accumulate consecutive failures and circuit-break at
// the threshold; a quarantined file whose probe failed backs off
// exponentially; a file that scanned clean is readmitted (its entry simply
// dies); a file that vanished from disk is forgotten. Returns the published
// snapshot plus this scan's entry/readmit counts.
func (ing *Ingester) updateQuarantine(now time.Time, entries []dass.Entry, bad []dass.BadFile, scanID trace.ID) (events, readmitted int64, list []QuarantinedFile) {
	if ing.cfg.QuarantineAfter <= 0 {
		return 0, 0, nil
	}
	seen := map[string]bool{}
	for _, b := range bad {
		seen[b.Path] = true
		st := ing.quar[b.Path]
		if st == nil {
			st = &quarState{}
			ing.quar[b.Path] = st
		}
		st.fails++
		st.lastErr = b.Err.Error()
		switch {
		case st.quarantined:
			// A due probe failed: double the delay, capped.
			st.backoff = min(st.backoff*2, ing.cfg.QuarantineMaxBackoff)
			st.nextProbe = now.Add(st.backoff)
		case st.fails >= ing.cfg.QuarantineAfter:
			st.quarantined = true
			st.since = now
			st.backoff = ing.cfg.QuarantineBackoff
			st.nextProbe = now.Add(st.backoff)
			events++
			ing.log.Warn("file quarantined",
				"path", b.Path, "fails", st.fails, "backoff", st.backoff, "err", st.lastErr,
				"trace_id", scanID)
		}
	}
	for _, e := range entries {
		if st, ok := ing.quar[e.Path]; ok {
			// The file scanned clean — a successful probe (or a recovered
			// transient): readmit by forgetting it.
			if st.quarantined {
				readmitted++
				ing.log.Info("file readmitted", "path", e.Path, "fails", st.fails,
					"trace_id", scanID)
			}
			delete(ing.quar, e.Path)
		}
		seen[e.Path] = true
	}
	for path, st := range ing.quar {
		if seen[path] || (st.quarantined && now.Before(st.nextProbe)) {
			continue
		}
		// Eligible for this scan but in neither list: gone from disk.
		delete(ing.quar, path)
	}
	for path, st := range ing.quar {
		if !st.quarantined {
			continue
		}
		list = append(list, QuarantinedFile{
			Path:        path,
			Fails:       st.fails,
			SinceUnixMS: st.since.UnixMilli(),
			NextProbeMS: st.nextProbe.UnixMilli(),
			LastErr:     st.lastErr,
		})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Path < list[j].Path })
	return events, readmitted, list
}

// Quarantined returns the currently circuit-broken files (last scan's
// snapshot).
func (ing *Ingester) Quarantined() []QuarantinedFile {
	ing.mu.RLock()
	defer ing.mu.RUnlock()
	return append([]QuarantinedFile(nil), ing.quarView...)
}

// extendLiveVCA keeps Dir/live.vca.dasf covering the ingested series:
// created on the first batch, extended with AppendToVCA afterwards. Files
// that cannot continue the series (shape change, out-of-order arrival) are
// counted, not fatal. Runs on the scanner's side of the fence: vcaSeen and
// vcaTail are scanner-owned, and the VCA writes happen with no lock held.
func (ing *Ingester) extendLiveVCA(entries []dass.Entry) (appends, errors int64) {
	path := filepath.Join(ing.cfg.Dir, LiveVCAName)
	var pending []dass.Entry
	for _, e := range entries {
		if !ing.vcaSeen[e.Path] && e.Timestamp >= ing.vcaTail {
			pending = append(pending, e)
		}
	}
	if len(pending) == 0 {
		return 0, 0
	}
	var err error
	if _, statErr := os.Stat(path); statErr != nil {
		_, err = dass.CreateVCA(path, pending)
	} else {
		_, err = dass.AppendToVCA(path, pending)
	}
	if err != nil {
		ing.log.Warn("live VCA append failed", "err", err)
		return 0, 1
	}
	for _, e := range pending {
		ing.vcaSeen[e.Path] = true
	}
	ing.vcaTail = pending[len(pending)-1].Timestamp
	return 1, 0
}

// Catalog returns the current served catalog (a consistent snapshot —
// later scans replace, never mutate, it).
func (ing *Ingester) Catalog() *dass.Catalog {
	ing.mu.RLock()
	defer ing.mu.RUnlock()
	return ing.cat
}

// BadFiles returns the files the last scan skipped.
func (ing *Ingester) BadFiles() []dass.BadFile {
	ing.mu.RLock()
	defer ing.mu.RUnlock()
	return append([]dass.BadFile(nil), ing.bad...)
}

// Stats snapshots the ingest counters.
func (ing *Ingester) Stats() IngestStats {
	ing.mu.RLock()
	defer ing.mu.RUnlock()
	return ing.stats
}
