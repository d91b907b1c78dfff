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

	"dassa/internal/cluster"
	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/faults"
	"dassa/internal/obs"
	"dassa/internal/scores"
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

// placement is where a test's /detect maps are made: in process (no
// workers), or on two in-process workers, each with its own score store.
type placement struct {
	workers []string
	pool    []*cluster.Worker
}

// tileStats sums the score stores the placement's maps fill: dassd's, or
// the workers'.
func (pc placement) tileStats(s *Server) scores.LRUStats {
	if pc.workers == nil {
		return s.tiles.Stats()
	}
	var sum scores.LRUStats
	for _, w := range pc.pool {
		st := w.ScoreStats()
		sum.Hits, sum.Misses, sum.Evictions = sum.Hits+st.Hits, sum.Misses+st.Misses, sum.Evictions+st.Evictions
		sum.Bytes, sum.Entries = sum.Bytes+st.Bytes, sum.Entries+st.Entries
	}
	return sum
}

// eachPlacement runs a score-store property once per placement; test
// builds its server with the placement's workers.
func eachPlacement(t *testing.T, test func(t *testing.T, pc placement)) {
	for _, pool := range []struct {
		name    string
		workers int
	}{{"local", 0}, {"workers", 2}} {
		t.Run(pool.name, func(t *testing.T) {
			leakcheck.Check(t)
			var pc placement
			for range pool.workers {
				addr, w := serveShardWorker(t)
				pc.workers, pc.pool = append(pc.workers, addr), append(pc.pool, w)
			}
			test(t, pc)
		})
	}
}

// TestScoreTransparency is the score store's contract: over a seeded
// sequence of arrivals, same-shape rewrites in place, retention drops and
// /detect windows of one to six files, every assembled map is bit for bit
// a cold run's over the same files, and /detect answers the cold run's
// events — locally, with a store small enough to evict, and through two
// workers.
func TestScoreTransparency(t *testing.T) { eachPlacement(t, testScoreTransparency) }

func testScoreTransparency(t *testing.T, pc placement) {
	const files, retain = 14, 8
	staged, alt := tileRecord(t, t.TempDir(), 8, files, 5), tileRecord(t, t.TempDir(), 8, files, 6)
	dir := t.TempDir()
	s := NewServer(Config{
		Ingest: IngestConfig{Dir: dir, Poll: time.Hour, RetainFiles: retain},
		// A 64 KiB score store holds a few dozen tiles of 8 channels.
		CacheBytes: 1 << 20, Nodes: 1, CoresPerNode: 2, Workers: pc.workers, Registry: obs.NewRegistry(),
	})
	t.Cleanup(s.Close)
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
			before := pc.tileStats(s)
			got, err := scoreOf(s, win, p)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			after := pc.tileStats(s)
			if after.Hits > before.Hits && after.Misses > before.Misses {
				partial++
			}
			if d := diffBits(got.out, want); d != "" || got.degraded {
				t.Fatalf("step %d, %s over %d files from %s: %s (degraded %v)", step, name, n, filepath.Base(win[0].Path), d, got.degraded)
			}
		}
		ask := func() {
			var body struct {
				Events      []detect.Region `json:"events"`
				Degraded    bool            `json:"degraded"`
				Distributed bool            `json:"distributed"`
			}
			q := fmt.Sprintf("/detect?op=%s&stride=30&s=%d&c=%d", name, win[0].Timestamp, n)
			if resp := getJSON(t, ts, q, &body); resp.StatusCode != 200 || body.Degraded || body.Distributed != (pc.workers != nil) {
				t.Fatalf("step %d: %s: status %d, degraded %v, distributed %v", step, q, resp.StatusCode, body.Degraded, body.Distributed)
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
	st, ing := pc.tileStats(s), s.Ingester().Stats()
	t.Logf("%d detects, %d partly cached, %d rewrites; store %+v; ingest %+v", detects, partial, rewrites, st, ing)
	// A worker's store has a fixed size this sequence does not fill; the
	// same LRU evicts in process.
	evicted := st.Evictions > 0 || pc.workers != nil
	if rewrites == 0 || partial == 0 || !evicted || st.Hits == 0 || ing.FilesRemoved == 0 || ing.FilesChanged == 0 {
		t.Errorf("the sequence did not cover the contract: %d rewrites, %d partly cached maps, store %+v, ingest %+v",
			rewrites, partial, st, ing)
	}
}

// TestScoreTilesNeverFromDegradedRun: a /detect whose reads lost a file
// answers degraded and stores nothing, so the same window asked again once
// the file reads is computed afresh — no tile hit — and is the clean map.
// Through workers the loss is theirs: the fault injector is process-wide.
func TestScoreTilesNeverFromDegradedRun(t *testing.T) {
	eachPlacement(t, testScoreTilesNeverFromDegradedRun)
}

func testScoreTilesNeverFromDegradedRun(t *testing.T, pc placement) {
	dir := t.TempDir()
	paths := tileRecord(t, dir, 8, 4, 5)
	s := NewServer(Config{Ingest: IngestConfig{Dir: dir, Poll: time.Hour}, Nodes: 1, CoresPerNode: 2, Workers: pc.workers, Registry: obs.NewRegistry()})
	t.Cleanup(s.Close)
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	dasf.SetInjector(faults.New(faults.Config{Seed: 1, Corrupt: []string{filepath.Base(paths[2])}}))
	t.Cleanup(func() { dasf.SetInjector(nil) })
	var body struct {
		Degraded    bool `json:"degraded"`
		Distributed bool `json:"distributed"`
	}
	if resp := getJSON(t, ts, "/detect?op=localsimi", &body); resp.StatusCode != 200 || !body.Degraded || body.Distributed != (pc.workers != nil) {
		t.Fatalf("/detect over a corrupt file: status %d, degraded %v, distributed %v; want a degraded 200", resp.StatusCode, body.Degraded, body.Distributed)
	}
	if st := pc.tileStats(s); st.Entries != 0 {
		t.Fatalf("a degraded run stored %d tiles", st.Entries)
	}

	dasf.SetInjector(nil)
	entries := s.Ingester().Catalog().Entries()
	p := strided(t, "localsimi", 50)
	hits := pc.tileStats(s).Hits
	got, err := scoreOf(s, entries, p)
	if err != nil {
		t.Fatal(err)
	}
	if n := pc.tileStats(s).Hits - hits; n != 0 || got.degraded {
		t.Fatalf("after the degraded run: %d tile hits, degraded %v; want a fresh, clean computation", n, got.degraded)
	}
	if d := diffBits(got.out, cold(t, entries, p)); d != "" {
		t.Fatal(d)
	}
}

// TestConcurrentDetectsAgree: detections over overlapping windows running at
// once — sharing tiles as they fill the store — each get the cold run's map
// and events, locally and through two workers (run it under -race).
func TestConcurrentDetectsAgree(t *testing.T) { eachPlacement(t, testConcurrentDetectsAgree) }

func testConcurrentDetectsAgree(t *testing.T, pc placement) {
	dir := t.TempDir()
	tileRecord(t, dir, 8, 6, 5)
	s := NewServer(Config{Ingest: IngestConfig{Dir: dir, Poll: time.Hour}, Nodes: 1, CoresPerNode: 2, Workers: pc.workers, Registry: obs.NewRegistry()})
	t.Cleanup(s.Close)
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
