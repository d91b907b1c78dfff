package cluster

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/scores"
	"dassa/internal/testutil/leakcheck"
)

// warmDetect is a warm clustered /detect at dassd's shape: two one-core
// workers with their score stores, and the default local-similarity map
// over a whole four-member window of 128 channels × 4 s at 250 Hz (an
// 82 KB map). One cold run leaves each band's tiles on its home worker, so
// every later run is assembled from them.
func warmDetect(tb testing.TB) func() *Result {
	tb.Helper()
	dir := tb.TempDir()
	cfg := dasgen.Config{
		Channels: 128, SampleRate: 250, FileSeconds: 4, NumFiles: 4,
		Seed: 11, DType: dasf.Float32,
	}
	if _, err := dasgen.Generate(dir, cfg, dasgen.Fig10Events(cfg)); err != nil {
		tb.Fatal(err)
	}
	cat, err := dass.ScanDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	v, err := dass.ViewOver(cat.Entries())
	if err != nil {
		tb.Fatal(err)
	}
	_, a1 := startWorker(tb, WorkerConfig{Cores: 1})
	_, a2 := startWorker(tb, WorkerConfig{Cores: 1})
	// A link declared dead mid-measurement would move a band, cold: on a
	// loaded machine, wait longer than the tests' usual 300 ms.
	co := newCoord(tb, []string{a1, a2}, func(c *Config) { c.DeadAfter = 10 * time.Second })
	waitFor(tb, 10*time.Second, func() bool { return co.HealthyWorkers() == 2 })
	req := Request{View: v, Params: detect.DefaultLocalSimi(cfg.SampleRate)}
	run := func() *Result {
		res, err := co.Run(context.Background(), req)
		if err != nil {
			tb.Fatal(err)
		}
		if res.Degraded() {
			tb.Fatalf("run degraded: %d shards lost", res.DegradedShards)
		}
		return res
	}
	run()
	return run
}

// TestWarmClusterDetectIsLean: by default a run cuts one shard per healthy
// worker, and a warm run allocates, across coordinator and workers, little
// more than the map it returns: each score is copied once on the worker
// (tile to frame) and once on the coordinator (frame to map), the frames'
// payloads are recycled, and no band is built on the way.
func TestWarmClusterDetectIsLean(t *testing.T) {
	run := warmDetect(t)
	res := run()
	if res.Shards != 2 {
		t.Fatalf("default run over 2 healthy workers cut %d shards, want 2", res.Shards)
	}
	const runs = 30
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if res := run(); res.Trace.BytesRead != 0 {
			t.Fatalf("a warm run read %d bytes, want every score from the tiles", res.Trace.BytesRead)
		}
	}
	runtime.ReadMemStats(&after)
	mapBytes := float64(8 * len(res.Data.Data))
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("a warm run allocates %.0f B, %.2f× its %.0f B map", perRun, perRun/mapBytes, mapBytes)
	bound := warmAllocBound
	if raceBuild {
		// A warm run puts four payloads back (a frame each side of each
		// band), and the pool drops a quarter of them: about one payload of
		// the map's size is re-made a run.
		bound++
	}
	if perRun > bound*mapBytes {
		t.Errorf("a warm run allocates %.2f× its map's bytes, want at most %.1f×", perRun/mapBytes, bound)
	}
}

// warmAllocBound bounds a warm run's allocation as a multiple of its map.
const warmAllocBound = 2.0

// BenchmarkWarmClusterDetect times one warm clustered run over two
// in-process workers, the path a repeated clustered /detect takes.
func BenchmarkWarmClusterDetect(b *testing.B) {
	run := warmDetect(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		run()
	}
}

// wholeFileWindows generates a record of 24 channels × five 4 s members at
// 250 Hz and returns whole-file windows over it, the whole record last.
func wholeFileWindows(t *testing.T) []*dass.View {
	t.Helper()
	dir := t.TempDir()
	cfg := dasgen.Config{Channels: 24, SampleRate: 250, FileSeconds: 4, NumFiles: 5, Seed: 5, DType: dasf.Float32}
	if _, err := dasgen.Generate(dir, cfg, dasgen.Fig10Events(cfg)); err != nil {
		t.Fatal(err)
	}
	cat, err := dass.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := cat.Entries()
	var windows []*dass.View
	for _, m := range [][2]int{{0, 2}, {1, 3}, {2, 5}, {0, 5}} {
		v, err := dass.ViewOver(entries[m[0]:m[1]])
		if err != nil {
			t.Fatal(err)
		}
		windows = append(windows, v)
	}
	return windows
}

// TestBandStaysOnItsWorker: shard i of a run goes to the i-th healthy
// worker, so a band of a repeated window lands on the worker that holds its
// tiles, whatever ran in between. Two workers run each of several whole-file
// windows once cold, then repeats in a shuffled order, among reads of a
// one-channel window (a run of one band): every repeat reads 0 bytes on
// every worker, and each worker's store holds one band of every window and
// gains nothing.
func TestBandStaysOnItsWorker(t *testing.T) {
	leakcheck.Check(t)
	windows := wholeFileWindows(t)
	w1, a1 := startWorker(t, WorkerConfig{Cores: 1})
	w2, a2 := startWorker(t, WorkerConfig{Cores: 1})
	// A link declared dead on a loaded machine would move a band, cold.
	co := newCoord(t, []string{a1, a2}, func(c *Config) { c.DeadAfter = 10 * time.Second })
	waitFor(t, 10*time.Second, func() bool { return co.HealthyWorkers() == 2 })
	p := detect.DefaultLocalSimi(250)
	run := func(v *dass.View) *Result {
		t.Helper()
		res, err := co.Run(context.Background(), Request{View: v, Params: p})
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded() || res.Shards != 2 {
			t.Fatalf("run: %d shards, %d lost; want 2 and none", res.Shards, res.DegradedShards)
		}
		return res
	}
	for _, v := range windows {
		run(v)
	}
	cold := []scores.LRUStats{w1.ScoreStats(), w2.ScoreStats()}
	if cold[0].Entries == 0 || cold[0].Entries != cold[1].Entries {
		t.Fatalf("cold runs left the workers holding %d and %d tiles, want one band of every window each",
			cold[0].Entries, cold[1].Entries)
	}
	narrow, err := windows[0].Subset(0, 1, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for i, k := range rng.Perm(4 * (len(windows) + 1)) {
		if k %= len(windows) + 1; k == len(windows) {
			if _, err := co.Run(context.Background(), Request{View: narrow, Op: OpRead}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if res := run(windows[k]); res.Trace.BytesRead != 0 {
			t.Fatalf("repeat %d (window %d) read %d bytes on the workers, want every band from its home worker's tiles",
				i, k, res.Trace.BytesRead)
		}
	}
	for i, now := range []scores.LRUStats{w1.ScoreStats(), w2.ScoreStats()} {
		if now.Entries != cold[i].Entries || now.Misses != cold[i].Misses {
			t.Errorf("worker %d: store %+v after the repeats, %+v cold: want no tile missed or added", i+1, now, cold[i])
		}
	}
}

// TestRecycledBuffersNeverAlias: result payloads come from one pool on both
// ends of the wire, and go back to it from the worker's writer and the
// coordinator's merge. Concurrent clustered reads and detections over
// distinct windows, whole-file ones written from tiles straight into the
// frame and cut ones run uncached, each return the in-process run's bits.
// A buffer recycled while still in use would mix two results; under -race
// it would also show as a race.
func TestRecycledBuffersNeverAlias(t *testing.T) {
	leakcheck.Check(t)
	windows := wholeFileWindows(t)
	whole := windows[len(windows)-1]
	for _, cut := range [][4]int{{2, 22, 300, 2700}, {0, 12, 0, 1500}, {9, 24, 2000, 5000}} {
		v, err := whole.Subset(cut[0], cut[1], cut[2], cut[3])
		if err != nil {
			t.Fatal(err)
		}
		windows = append(windows, v)
	}
	_, a1 := startWorker(t, WorkerConfig{Cores: 1})
	_, a2 := startWorker(t, WorkerConfig{Cores: 1})
	co := newCoord(t, []string{a1, a2}, func(c *Config) { c.DeadAfter = 10 * time.Second })
	waitFor(t, 10*time.Second, func() bool { return co.HealthyWorkers() == 2 })
	p := detect.DefaultLocalSimi(250)
	fw := core.New(core.Config{Nodes: 1, CoresPerNode: 2})
	type job struct {
		name string
		req  Request
		want *dasf.Array2D
	}
	var jobs []job
	for _, v := range windows {
		read, _, err := v.Read()
		if err != nil {
			t.Fatal(err)
		}
		simi, _, err := fw.Run(v, p, "")
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{"read", Request{View: v, Op: OpRead}, read}, job{p.Op(), Request{View: v, Params: p}, simi})
	}
	const clients, rounds = 4, 3
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds * len(jobs) {
				j := jobs[(c*5+i)%len(jobs)]
				res, err := co.Run(context.Background(), j.req)
				if err != nil {
					t.Errorf("client %d, run %d: %v", c, i, err)
					return
				}
				if res.Degraded() {
					t.Errorf("client %d, run %d: %d shards lost", c, i, res.DegradedShards)
					return
				}
				if k := firstDiff(res.Data, j.want); k >= 0 {
					t.Errorf("client %d, run %d (%s over %d×%d): value %d differs from the in-process run's",
						c, i, j.name, j.want.Channels, j.want.Samples, k)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// firstDiff returns the first index whose bits differ between got and want,
// -1 when none does, and 0 on a shape mismatch.
func firstDiff(got, want *dasf.Array2D) int {
	if got.Channels != want.Channels || got.Samples != want.Samples {
		return 0
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			return i
		}
	}
	return -1
}
