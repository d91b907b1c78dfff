package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/faults"
	"dassa/internal/obs"
	"dassa/internal/testutil/leakcheck"
)

// tileRecord generates files of 1 000 samples (4 s at 250 Hz, the
// benchmark's geometry) into dir. Records of one length but another seed
// have the same names and headers and other samples.
func tileRecord(t *testing.T, dir string, nch, files int, seed int64) []string {
	t.Helper()
	cfg := dasgen.Config{Channels: nch, SampleRate: 250, FileSeconds: 4, NumFiles: files, Seed: seed, DType: dasf.Float32}
	var events []dasgen.Event
	if seed%2 == 1 {
		events = dasgen.Fig10Events(cfg)
	}
	paths, err := dasgen.Generate(dir, cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// rewriteInPlace overwrites dst with src's bytes — the same header, other
// samples — and moves its mtime a second on, past any clock granule.
func rewriteInPlace(t *testing.T, dst, src string) {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(dst)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len(raw)) {
		t.Fatalf("%s: %d bytes, its rewrite %d: not the same shape", dst, fi.Size(), len(raw))
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	mt := fi.ModTime().Add(time.Second)
	if err := os.Chtimes(dst, mt, mt); err != nil {
		t.Fatal(err)
	}
}

// strided returns op's defaults at 250 Hz with the stride set.
func strided(t *testing.T, op string, stride int) detect.Params {
	t.Helper()
	o, _ := detect.Lookup(op)
	p := o.Default(250, 0)
	if err := detect.Set(p, "stride", fmt.Sprint(stride)); err != nil {
		t.Fatal(err)
	}
	return p
}

// cold runs p over the files from disk, with no cache of any kind.
func cold(t *testing.T, entries []dass.Entry, p detect.Params) *dasf.Array2D {
	t.Helper()
	v, err := dass.ViewOver(entries)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := core.New(core.Config{Nodes: 1, CoresPerNode: 2, FailPolicy: dass.FailDegrade}).Run(v, p, "")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// scoreOf is the in-process /detect computation over entries, as the
// handler runs it.
func scoreOf(s *Server, entries []dass.Entry, p detect.Params) (scored, error) {
	v, err := dass.ViewOver(entries)
	if err != nil {
		return scored{}, err
	}
	return s.score(context.Background(), v, entries, p)
}

// diffBits describes the first cell where got and want differ, "" if none.
func diffBits(got, want *dasf.Array2D) string {
	if got.Channels != want.Channels || got.Samples != want.Samples {
		return fmt.Sprintf("%d×%d, want %d×%d", got.Channels, got.Samples, want.Channels, want.Samples)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			return fmt.Sprintf("cell (%d,%d) = %v, cold run %v", i/want.Samples, i%want.Samples, got.Data[i], want.Data[i])
		}
	}
	return ""
}

// sameEvents compares event lists, an empty list equal to none.
func sameEvents(a, b []detect.Region) bool {
	return len(a)+len(b) == 0 || reflect.DeepEqual(a, b)
}

// TestScorePlanArrival pins the planner on the benchmark's ingest geometry:
// 1 000-sample files, local similarity at its 250 Hz defaults (reach 66,
// stride 50), a four-file window one file on from the window before. The
// tiles are a head, an interior per file, a band per boundary and a tail;
// the arrival misses four of them and computes them in two sub-runs,
// [0,150) and [2850,4000) — 26 cells a channel for the 23 it keeps, not 80.
// Cold, the one sub-run is the whole view; STA/LTA at stride 1, whose
// interiors never fit the store, keeps today's single run.
func TestScorePlanArrival(t *testing.T) {
	dir := t.TempDir()
	tileRecord(t, dir, 2, 5, 2)
	cat, err := dass.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := cat.Entries()
	plan := func(win []dass.Entry, p detect.Params) scorePlan {
		v, err := dass.ViewOver(win)
		if err != nil {
			t.Fatal(err)
		}
		return planScores(v, win, p)
	}
	type span struct{ lo, hi int }
	runsOf := func(pl scorePlan, missing []int) (spans []span, cells int) {
		for _, run := range pl.subRuns(missing) {
			lo, hi, err := pl.bounds(run, strided(t, "localsimi", 50))
			if err != nil {
				t.Fatal(err)
			}
			spans = append(spans, span{lo, hi})
			cells += (hi - lo + pl.stride - 1) / pl.stride
		}
		return spans, cells
	}

	simi := strided(t, "localsimi", 50)
	prev, cur := plan(entries[:4], simi), plan(entries[1:], simi)
	var widths []int
	for _, tl := range cur.tiles {
		widths = append(widths, tl.c1-tl.c0)
	}
	if want := []int{2, 17, 3, 17, 3, 17, 3, 17, 1}; !slices.Equal(widths, want) {
		t.Fatalf("tile widths %v, want %v", widths, want)
	}
	have := map[BlockKey]bool{}
	for _, tl := range prev.tiles {
		have[tl.key] = true
	}
	var missing, all []int
	kept := 0
	for i, tl := range cur.tiles {
		all = append(all, i)
		if !have[tl.key] {
			missing = append(missing, i)
			kept += tl.c1 - tl.c0
		}
	}
	spans, cells := runsOf(cur, missing)
	if !slices.Equal(spans, []span{{0, 150}, {2850, 4000}}) || cells != 26 || kept != 23 {
		t.Errorf("arrival: sub-runs %v computing %d cells a channel, keeping %d; want [{0 150} {2850 4000}], 26, 23", spans, cells, kept)
	}
	if spans, cells := runsOf(cur, all); !slices.Equal(spans, []span{{0, 4000}}) || cells != 80 {
		t.Errorf("cold: sub-runs %v computing %d cells a channel, want the whole view", spans, cells)
	}

	stalta := strided(t, "stalta", 1)
	pl := plan(entries[:4], stalta)
	var interiors []int
	for i, tl := range pl.tiles {
		if tl.m0 == tl.m1 && !tl.head {
			interiors = append(interiors, i)
		}
	}
	runs := pl.subRuns(interiors)
	if len(interiors) != 4 || len(runs) != 1 {
		t.Fatalf("stalta: %d interior tiles in %d runs, want 4 in 1", len(interiors), len(runs))
	}
	if lo, hi, err := pl.bounds(runs[0], stalta); err != nil || lo != 0 || hi != 4000 {
		t.Errorf("stalta: the warm run is [%d,%d) (%v), want the whole view", lo, hi, err)
	}
}

// TestScoreTransparency is the score store's contract: over a seeded
// sequence of arrivals, same-shape rewrites in place, retention drops and
// /detect windows of one to six files, with a store small enough to evict,
// every assembled map is bit for bit a cold run's over the same files, and
// /detect answers the cold run's events.
func TestScoreTransparency(t *testing.T) {
	leakcheck.Check(t)
	const files, retain = 14, 8
	staged, alt := tileRecord(t, t.TempDir(), 8, files, 5), tileRecord(t, t.TempDir(), 8, files, 6)
	dir := t.TempDir()
	s := NewServer(Config{
		Ingest: IngestConfig{Dir: dir, Poll: time.Hour, RetainFiles: retain},
		// A 64 KiB score store holds a few dozen tiles of 8 channels.
		CacheBytes: 1 << 20, Nodes: 1, CoresPerNode: 2, Registry: obs.NewRegistry(),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	scan := func() {
		t.Helper()
		if err := s.Ingester().ScanOnce(); err != nil {
			t.Fatal(err)
		}
	}
	next := 3
	for _, p := range staged[:next] {
		arrive(t, dir, p)
	}
	scan()

	rng := rand.New(rand.NewSource(29))
	rewritten := map[string]bool{} // holds alt's samples
	var rewrites, partial, detects int
	for step := 0; step < 90; step++ {
		entries := s.Ingester().Catalog().Entries()
		switch k := rng.Intn(10); {
		case k < 2 && next < files:
			arrive(t, dir, staged[next])
			next++
			scan()
			continue
		case k < 3:
			e := entries[rng.Intn(len(entries))]
			i := slices.IndexFunc(staged, func(p string) bool { return filepath.Base(p) == filepath.Base(e.Path) })
			src := staged[i]
			if !rewritten[e.Path] {
				src = alt[i]
			}
			rewriteInPlace(t, e.Path, src)
			rewritten[e.Path] = !rewritten[e.Path]
			rewrites++
			scan()
			continue
		}
		n := 1 + rng.Intn(min(6, len(entries)))
		win := entries[rng.Intn(len(entries)-n+1):][:n]
		name := []string{"localsimi", "stalta"}[rng.Intn(2)]
		p := strided(t, name, 30)
		want := cold(t, win, p)
		op, _ := detect.Lookup(name)
		wantEvents := op.Events(want, detect.DefaultThreshold)
		detects++

		check := func() {
			before := s.tiles.Stats()
			got, err := scoreOf(s, win, p)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			after := s.tiles.Stats()
			if after.Hits > before.Hits && after.Misses > before.Misses {
				partial++
			}
			if d := diffBits(got.out, want); d != "" || got.degraded {
				t.Fatalf("step %d, %s over %d files from %s: %s (degraded %v)", step, name, n, filepath.Base(win[0].Path), d, got.degraded)
			}
		}
		ask := func() {
			var body struct {
				Events   []detect.Region `json:"events"`
				Degraded bool            `json:"degraded"`
			}
			q := fmt.Sprintf("/detect?op=%s&stride=30&s=%d&c=%d", name, win[0].Timestamp, n)
			if resp := getJSON(t, ts, q, &body); resp.StatusCode != 200 || body.Degraded {
				t.Fatalf("step %d: %s: status %d, degraded %v", step, q, resp.StatusCode, body.Degraded)
			}
			if !sameEvents(body.Events, wantEvents) {
				t.Fatalf("step %d: %s: events %+v, cold run %+v", step, q, body.Events, wantEvents)
			}
		}
		if rng.Intn(2) == 0 {
			check()
			ask()
		} else {
			ask()
			check()
		}
	}
	st, ing := s.tiles.Stats(), s.Ingester().Stats()
	t.Logf("%d detects, %d partly cached, %d rewrites; store %+v; ingest %+v", detects, partial, rewrites, st, ing)
	if rewrites == 0 || partial == 0 || st.Evictions == 0 || st.Hits == 0 || ing.FilesRemoved == 0 || ing.FilesChanged == 0 {
		t.Errorf("the sequence did not cover the contract: %d rewrites, %d partly cached maps, store %+v, ingest %+v",
			rewrites, partial, st, ing)
	}
}

// TestScoreTilesNeverFromDegradedRun: a /detect whose reads lost a file
// answers degraded and stores nothing, so the same window asked again once
// the file reads is computed afresh — no tile hit — and is the clean map.
func TestScoreTilesNeverFromDegradedRun(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	paths := tileRecord(t, dir, 8, 4, 5)
	s := NewServer(Config{Ingest: IngestConfig{Dir: dir, Poll: time.Hour}, Nodes: 1, CoresPerNode: 2, Registry: obs.NewRegistry()})
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	dasf.SetInjector(faults.New(faults.Config{Seed: 1, Corrupt: []string{filepath.Base(paths[2])}}))
	t.Cleanup(func() { dasf.SetInjector(nil) })
	var body struct {
		Degraded bool `json:"degraded"`
	}
	if resp := getJSON(t, ts, "/detect?op=localsimi", &body); resp.StatusCode != 200 || !body.Degraded {
		t.Fatalf("/detect over a corrupt file: status %d, degraded %v; want a degraded 200", resp.StatusCode, body.Degraded)
	}
	if st := s.tiles.Stats(); st.Entries != 0 {
		t.Fatalf("a degraded run stored %d tiles", st.Entries)
	}

	dasf.SetInjector(nil)
	entries := s.Ingester().Catalog().Entries()
	p := strided(t, "localsimi", 50)
	hits := s.tiles.Stats().Hits
	got, err := scoreOf(s, entries, p)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.tiles.Stats().Hits - hits; n != 0 || got.degraded {
		t.Fatalf("after the degraded run: %d tile hits, degraded %v; want a fresh, clean computation", n, got.degraded)
	}
	if d := diffBits(got.out, cold(t, entries, p)); d != "" {
		t.Fatal(d)
	}
}

// TestConcurrentDetectsAgree: detections over overlapping windows running at
// once — sharing tiles as they fill the store — each get the cold run's map
// and events (run it under -race).
func TestConcurrentDetectsAgree(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	tileRecord(t, dir, 8, 6, 5)
	s := NewServer(Config{Ingest: IngestConfig{Dir: dir, Poll: time.Hour}, Nodes: 1, CoresPerNode: 2, Registry: obs.NewRegistry()})
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	entries := s.Ingester().Catalog().Entries()
	p := strided(t, "localsimi", 50)
	wins := [][]dass.Entry{entries[0:4], entries[1:5], entries[2:6]}
	var want []*dasf.Array2D
	for _, win := range wins {
		want = append(want, cold(t, win, p))
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		pg := strided(t, "localsimi", 50)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k := (g + i) % len(wins)
				if i%2 == 0 {
					got, err := scoreOf(s, wins[k], pg)
					if err != nil {
						t.Error(err)
						return
					}
					if d := diffBits(got.out, want[k]); d != "" {
						t.Errorf("window %d: %s", k, d)
					}
					continue
				}
				resp, err := ts.Client().Get(fmt.Sprintf("%s/detect?op=localsimi&s=%d&c=4", ts.URL, wins[k][0].Timestamp))
				if err != nil {
					t.Error(err)
					return
				}
				var body struct {
					Events []detect.Region `json:"events"`
				}
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil || !sameEvents(body.Events, detect.BandedEvents(want[k], detect.DefaultThreshold)) {
					t.Errorf("window %d: events %+v (%v), cold run %+v", k, body.Events, err, detect.BandedEvents(want[k], detect.DefaultThreshold))
				}
			}
		}()
	}
	wg.Wait()
}
