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
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dassa/internal/arrayudf"
	"dassa/internal/cluster"
	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/faults"
	"dassa/internal/obs"
	"dassa/internal/obs/trace"
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

// waitHealthy waits until every worker of the placement is healthy, so a
// detection is distributed.
func (pc placement) waitHealthy(t *testing.T, s *Server) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); pc.workers != nil && s.Cluster().HealthyWorkers() < len(pc.workers); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the workers never connected")
		}
	}
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

// TestPartlyCachedMapScoresOnlyKeptCells: with a seeded random subset of a
// six-file window's tiles in the store — left there by detections over runs
// of one or two of its files — the whole window's map is a cold run's bit for
// bit, and its sub-runs score exactly the cells they keep, in process and on
// the workers (whose counts come back in the request trace). The workers
// together compute what the same map computes in process: each scores its
// shard's rows and reads the rows around them. At stride 50 and a reach of 66
// no two missing tiles are close enough for a sub-run to span the cached
// cells between them.
func TestPartlyCachedMapScoresOnlyKeptCells(t *testing.T) {
	eachPlacement(t, testPartlyCachedMapScoresOnlyKeptCells)
}

func testPartlyCachedMapScoresOnlyKeptCells(t *testing.T, pc placement) {
	p := strided(t, "localsimi", 50)
	var kept, hits int
	for seed := int64(1); seed <= 4; seed++ {
		dir := t.TempDir()
		tileRecord(t, dir, 8, 6, seed)
		sum := partlyCachedMap(t, dir, seed, p, pc)
		if sum["cells_computed"] != sum["cells_kept"] {
			t.Errorf("seed %d: %d cells computed for %d kept (%d of %d tiles hit)", seed, sum["cells_computed"], sum["cells_kept"], sum["tiles_hit"], sum["tiles"])
		}
		if pc.workers != nil {
			if local := partlyCachedMap(t, dir, seed, p, placement{}); sum["cells_computed"] != local["cells_computed"] {
				t.Errorf("seed %d: the workers computed %d cells, the same map in process %d", seed, sum["cells_computed"], local["cells_computed"])
			}
		}
		t.Logf("seed %d: %v", seed, sum)
		kept, hits = kept+sum["cells_kept"], hits+sum["tiles_hit"]
	}
	if kept == 0 || hits == 0 {
		t.Errorf("no seed made a partly cached map: %d cells kept, %d tiles hit", kept, hits)
	}
}

// partlyCachedMap serves the record in dir from a new server on pc, leaves
// the tiles of a seeded random choice of runs of one or two files in its
// stores, then assembles the whole record's map under a trace, checks it
// against the cold run, and returns the serve.scores and worker.shard spans'
// counts, summed.
func partlyCachedMap(t *testing.T, dir string, seed int64, p detect.Params, pc placement) map[string]int {
	t.Helper()
	s := NewServer(Config{Ingest: IngestConfig{Dir: dir, Poll: time.Hour}, Nodes: 1, CoresPerNode: 2, Workers: pc.workers, Registry: obs.NewRegistry()})
	t.Cleanup(s.Close)
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	pc.waitHealthy(t, s)
	entries := s.Ingester().Catalog().Entries()
	rng := rand.New(rand.NewSource(seed))
	for i := range entries {
		for n := 1; n <= 2 && i+n <= len(entries); n++ {
			if rng.Intn(2) == 0 {
				if _, err := scoreOf(s, entries[i:i+n], p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	store := trace.NewStore(1, 1)
	id := trace.NewID()
	ctx, root := trace.New(context.Background(), store, "test", id, "test")
	v, err := dass.ViewOver(entries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.score(ctx, v, entries, p)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if d := diffBits(got.out, cold(t, entries, p)); d != "" || got.degraded || got.distributed != (pc.workers != nil) {
		t.Fatalf("seed %d: %s (degraded %v, distributed %v)", seed, d, got.degraded, got.distributed)
	}
	sum := map[string]int{}
	for _, sp := range store.Get(id).Spans {
		for _, a := range sp.Attrs {
			if n, err := strconv.Atoi(a.V); err == nil && (sp.Name == "serve.scores" || sp.Name == "worker.shard") {
				sum[a.K] += n
			}
		}
	}
	return sum
}

// parked is a points op with a declared time reach, so /detect tiles it and
// a window one file longer than a cached one computes it in a sub-run whose
// cells start mid-view. While parkGate holds a gate, every cell waits on it.
type parked struct {
	Stride int `json:"stride" key:"stride" help:"evaluate every N samples"`
}

var parkGate atomic.Pointer[parking]

// parking holds cells until release closes. It notes whether any held cell
// sat at the start of its sub-view, and counts the cells after release that
// began a channel for their thread: a run cancelled while cells are held
// must begin none.
type parking struct {
	once             sync.Once
	reached, release chan struct{}
	released         atomic.Bool
	mu               sync.Mutex
	row              map[*arrayudf.Stencil]int // each thread's stencil → its channel
	atStart, begun   int
}

func (g *parking) cell(s *arrayudf.Stencil) {
	g.mu.Lock()
	if row, ok := g.row[s]; !ok || row != s.Channel() {
		g.row[s] = s.Channel()
		if g.released.Load() {
			g.begun++
		}
	}
	if !g.released.Load() && s.T() == 0 {
		g.atStart++
	}
	g.mu.Unlock()
	g.once.Do(func() { close(g.reached) })
	<-g.release
}

func (parked) Op() string { return "parked" }

func (p parked) Validate(nch, nt int) error {
	if nch < 1 || p.Stride < 1 || p.Stride > nt {
		return fmt.Errorf("%w: parked %+v on a %d×%d view", detect.ErrBadParams, p, nch, nt)
	}
	return nil
}

func (parked) TimeReach() (back, fwd int) { return 66, 66 }

func (p parked) Workload(int) arrayudf.Workload {
	return arrayudf.Workload{
		Spec: arrayudf.Spec{TimeStride: p.Stride},
		UDFScratch: func(s *arrayudf.Stencil, _ *daslib.Scratch) float64 {
			if g := parkGate.Load(); g != nil {
				g.cell(s)
			}
			return s.At(-66, 0) + s.At(66, 0)
		},
	}
}

func init() {
	detect.Register(detect.Op{
		Name:    parked{}.Op(),
		Default: func(float64, int) detect.Params { return &parked{Stride: 50} },
		Events:  detect.BandedEvents,
		Summary: func(detect.Params, *dasf.Array2D, int, float64) string { return "parked map" },
	})
}

// TestCancelInWindowedSubRun: a /detect whose deadline passes while its one
// sub-run — cells from mid-view on — is computing answers a cancellation,
// and no thread, in process or on a worker, begins another channel once the
// held cells go on; nothing is left running.
func TestCancelInWindowedSubRun(t *testing.T) { eachPlacement(t, testCancelInWindowedSubRun) }

func testCancelInWindowedSubRun(t *testing.T, pc placement) {
	dir := t.TempDir()
	tileRecord(t, dir, 8, 5, 5)
	s := NewServer(Config{Ingest: IngestConfig{Dir: dir, Poll: time.Hour}, Nodes: 1, CoresPerNode: 2, Workers: pc.workers, Registry: obs.NewRegistry()})
	t.Cleanup(s.Close)
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	pc.waitHealthy(t, s)
	entries := s.Ingester().Catalog().Entries()
	p := &parked{Stride: 50}
	if _, err := scoreOf(s, entries[:4], p); err != nil {
		t.Fatal(err)
	}

	g := &parking{reached: make(chan struct{}), release: make(chan struct{}), row: map[*arrayudf.Stencil]int{}}
	parkGate.Store(g)
	defer parkGate.Store(nil)
	// A worker's shard runs under the request's deadline, carried on the
	// wire, so it expires there whichever frame arrives first, but on the
	// worker's own timer: the held cells go on a margin after this one.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	v, err := dass.ViewOver(entries)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.score(ctx, v, entries, p)
		errc <- err
	}()
	select {
	case <-g.reached:
	case err := <-errc:
		t.Fatalf("the detection ended before computing a cell: %v", err)
	}
	<-ctx.Done()
	time.Sleep(200 * time.Millisecond)
	g.released.Store(true)
	close(g.release)
	if err := <-errc; !dass.IsCancellation(err) {
		t.Fatalf("a detection past its deadline: %v, want a cancellation", err)
	}
	for _, w := range pc.pool {
		for w.InFlight() > 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.atStart != 0 || g.begun != 0 {
		t.Errorf("%d held cells at a sub-view's start (want a sub-run from mid-view), %d channels begun after the deadline (want 0)", g.atStart, g.begun)
	}
}
