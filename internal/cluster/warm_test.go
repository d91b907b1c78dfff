package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/dass"
	"dassa/internal/detect"
)

// warmDetect is a warm clustered /detect at dassd's shape: two one-core
// workers with their score stores, and the default local-similarity map
// over a whole four-member window of 128 channels × 4 s at 250 Hz (an
// 82 KB map). It returns once each worker holds the tiles of both bands,
// so every later run is assembled from them.
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
	w1, a1 := startWorker(tb, WorkerConfig{Cores: 1})
	w2, a2 := startWorker(tb, WorkerConfig{Cores: 1})
	// A link declared dead mid-measurement would cut one shard, cold: on a
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
	// The cold run leaves one band's tiles on each worker. Which worker a
	// band goes to is whichever link its shard picks first, so run until
	// each worker holds both bands: from then on every run is warm.
	run()
	band := w1.ScoreStats().Entries
	for i := 0; w1.ScoreStats().Entries < 2*band || w2.ScoreStats().Entries < 2*band; i++ {
		if i == 200 {
			tb.Fatalf("200 runs left the workers holding %d and %d tiles, want %d each",
				w1.ScoreStats().Entries, w2.ScoreStats().Entries, 2*band)
		}
		run()
	}
	return run
}

// TestWarmClusterDetectIsLean: by default a run cuts one shard per healthy
// worker, and a warm run allocates, across coordinator and workers, a small
// multiple of the map it returns: each score is copied once on the worker
// (tile to frame) and once on the coordinator (frame to map), not trimmed,
// framed and decoded into intermediate slices on the way.
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
	if perRun > warmAllocBound*mapBytes {
		t.Errorf("a warm run allocates %.2f× its map's bytes, want at most %.1f×", perRun/mapBytes, warmAllocBound)
	}
}

// warmAllocBound bounds a warm run's allocation as a multiple of its map.
const warmAllocBound = 6.0

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
