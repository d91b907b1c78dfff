package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dassa/internal/serve"
)

// ingest is live monitoring under cache pressure: files keep arriving in
// the watched directory while the retained window is read. The one client
// alternates an arrival cycle — stage, rename (clock starts), scan, /search
// confirms the file, /detect over the newest files answers (clock stops) —
// with readsPerCycle band reads of retained files, which shows what ingest
// costs the reads that follow it. The retained working set is larger than
// the block cache on purpose, so the miss/evict path and the retention
// drop's cache invalidation run on every cycle.
type ingest struct {
	name string
	sc   scale
	seed int64
	root string

	rec    *record // preload + staged files, one continuous record
	watch  string
	d      *daemon
	newest int // index of the newest ingested file
	reads  int // /read counter, for the 1-in-16 value check
}

// readsPerCycle band reads follow every arrival cycle.
const readsPerCycle = 2

func newIngest(name string, sc scale, seed int64, root string) *ingest {
	return &ingest{name: name, sc: sc, seed: seed, root: root}
}

func (g *ingest) primary() string { return "ingest" }

func (g *ingest) setup() error {
	total := g.sc.IngestPreload + g.sc.IngestStaged
	rec, err := generate(filepath.Join(g.root, "staged"), g.sc, total, g.sc.ServeFileSec, g.seed)
	if err != nil {
		return err
	}
	g.rec = rec
	g.watch = filepath.Join(g.root, "watch")
	if err := os.MkdirAll(g.watch, 0o755); err != nil {
		return err
	}
	for i := 0; i < g.sc.IngestPreload; i++ {
		if err := os.Rename(rec.paths[i], g.arrived(i)); err != nil {
			return err
		}
	}
	g.newest = g.sc.IngestPreload - 1
	g.d, err = startDaemon(g.watch, g.sc.IngestCacheBytes,
		serve.IngestConfig{RetainFiles: g.sc.IngestRetain, LiveVCA: true}, 0)
	if err != nil {
		return err
	}
	// Warm up with real cycles and reads; they consume staged files.
	w := newWindow()
	rng := rand.New(rand.NewSource(g.seed))
	for i := 0; i < 3; i++ {
		g.cycle(w, nil)
		g.read(w, rng)
	}
	if w.failed > 0 {
		return fmt.Errorf("warm-up: %v", w.why)
	}
	return nil
}

func (g *ingest) teardown() error {
	if g.d != nil {
		g.d.close()
	}
	return os.RemoveAll(g.root)
}

// arrived is where file i lives once it has been ingested.
func (g *ingest) arrived(i int) string {
	return filepath.Join(g.watch, filepath.Base(g.rec.paths[i]))
}

// cycle performs one arrival. It reports false when no staged file is left.
func (g *ingest) cycle(w *window, op *spanRef) bool {
	i := g.newest + 1
	if i >= len(g.rec.paths) {
		return false
	}
	dst := g.arrived(i)
	err := op.step("os.stage", func() error { return copyFile(g.rec.paths[i], dst+".part") })
	if err != nil {
		w.fail("ingest", "stage: %v", err)
		return true
	}
	e2e := op.child("e2e.ingest")
	t0 := time.Now()
	err = os.Rename(dst+".part", dst)
	g.newest = i
	if err == nil {
		scan := e2e.child("serve.ingest_scan")
		ts := time.Now()
		err = g.d.srv.Ingester().ScanOnce()
		w.sample("scan", time.Since(ts))
		st := g.d.srv.Ingester().Stats()
		scan.end("files_total", st.FilesTotal, "vca_appends", st.VCAAppends, "files_removed", st.FilesRemoved)
	}
	win := fileWindow{i - detectFiles + 1, detectFiles}
	var body []byte
	var code int
	if err == nil {
		sp := e2e.child("serve.search")
		ts := g.rec.timestamp(i)
		code, body, _, err = g.d.get(fmt.Sprintf("/search?start=%d&end=%d", ts, ts+1))
		sp.end()
		var sr searchResp
		if err == nil && (code != 200 || json.Unmarshal(body, &sr) != nil || sr.Matches != 1) {
			err = fmt.Errorf("/search does not confirm file %d: status %d %.120s", i, code, body)
		}
	}
	if err == nil {
		sp := e2e.child("serve.detect")
		code, body, _, err = g.d.get(fmt.Sprintf("/detect?op=localsimi&s=%d&c=%d", g.rec.timestamp(win.first), detectFiles))
		sp.end()
	}
	lat := time.Since(t0)
	e2e.end()
	if err == nil {
		// No event gate here: at this record's length the planted earthquake
		// outlasts any four-file window, so "found" is not well defined.
		_, err = checkDetect(code, body, g.rec, win, false, false)
	}
	if err == nil && op != nil {
		err = replayRequest(g.d, g.rec, request{class: "detect", win: win}, false, op)
	}
	if err != nil {
		w.fail("ingest", "file %d: %v", i, err)
		return true
	}
	w.ok("ingest", lat)
	return true
}

// read is one band read over two retained files.
func (g *ingest) read(w *window, rng *rand.Rand) {
	// Retained: [newest-retain+1, newest].
	first := g.newest - readFiles + 1 - rng.Intn(g.sc.IngestRetain-readFiles+1)
	bandW := g.rec.cfg.Channels / readBands
	band := rng.Intn(readBands)
	g.reads++
	values := g.reads%valueCheckEvery == 0
	path := fmt.Sprintf("/read?s=%d&c=%d&ch0=%d&ch1=%d", g.rec.timestamp(first), readFiles, band*bandW, (band+1)*bandW)
	code, body, lat, err := g.d.get(path)
	if err == nil {
		paths := []string{g.arrived(first), g.arrived(first + 1)}
		err = checkRead(code, body, g.rec, paths, band*bandW, (band+1)*bandW, false, values)
	}
	if err != nil {
		w.fail("read", "%s: %v", path, err)
		return
	}
	w.ok("read", lat)
}

// window alternates arrival cycles and band reads until the deadline (or
// until the staged files run out).
func (g *ingest) window(d time.Duration, tr *tracer) *window {
	before := g.d.srv.Cache().Stats()
	rng := rand.New(rand.NewSource(g.seed + int64(g.newest)))
	w := newWindow()
	for time.Since(w.start) < d {
		op := tr.op(g.name)
		more := g.cycle(w, op)
		op.end()
		if !more {
			break
		}
		for i := 0; i < readsPerCycle; i++ {
			g.read(w, rng)
		}
	}
	w.elapsed = time.Since(w.start)
	after := g.d.srv.Cache().Stats()
	w.add("cache_hits", float64(after.Hits-before.Hits))
	w.add("cache_misses", float64(after.Misses-before.Misses))
	w.add("cache_evictions", float64(after.Evictions-before.Evictions))
	return w
}

// gate: the workload exists to run the evict path.
func (g *ingest) gate(w *window) error {
	if w.sums["cache_evictions"] <= 0 {
		return fmt.Errorf("no cache eviction in the window: the working set fits the cache")
	}
	return nil
}
