package serve

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
)

func block(n int) *dasf.Array2D { return dasf.NewArray2D(1, n) }

// noLoad is the loader of a get that must hit.
func noLoad() (*dasf.Array2D, dasf.IOStats, error) {
	return nil, dasf.IOStats{}, fmt.Errorf("loader ran; want a hit")
}

// waitParked waits until n callers are blocked on in-flight loads.
func waitParked(t *testing.T, c *BlockCache, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.waiting.Load() != n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := c.waiting.Load(); got != n {
		t.Fatalf("%d callers parked on the in-flight load, want %d", got, n)
	}
}

func TestBlockCacheHitMiss(t *testing.T) {
	c := NewBlockCache(1 << 20)
	ctx := context.Background()
	loads := 0
	load := func() (*dasf.Array2D, dasf.IOStats, error) {
		loads++
		return block(100), dasf.IOStats{Opens: 1, Reads: 1, BytesRead: 800}, nil
	}

	_, st, hit, err := c.get(ctx, "a", load)
	if err != nil || hit || st.Opens != 1 {
		t.Fatalf("first get: hit=%v st=%+v err=%v", hit, st, err)
	}
	_, st, hit, err = c.get(ctx, "a", load)
	if err != nil || !hit || st.Opens != 0 {
		t.Fatalf("second get: hit=%v st=%+v err=%v", hit, st, err)
	}
	if loads != 1 {
		t.Fatalf("loader ran %d times", loads)
	}
	cs := c.Stats()
	if cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
		t.Fatalf("stats %+v", cs)
	}
}

func TestBlockCacheErrorNotCached(t *testing.T) {
	c := NewBlockCache(1 << 20)
	loads := 0
	fail := func() (*dasf.Array2D, dasf.IOStats, error) {
		loads++
		return nil, dasf.IOStats{}, fmt.Errorf("boom")
	}
	if _, _, _, err := c.get(context.Background(), "bad", fail); err == nil {
		t.Fatal("want error")
	}
	if _, _, _, err := c.get(context.Background(), "bad", fail); err == nil {
		t.Fatal("want error again")
	}
	if loads != 2 {
		t.Fatalf("failed loads must not be cached; loader ran %d times", loads)
	}
}

func TestBlockCacheEviction(t *testing.T) {
	// The budget fits two members: loading many distinct members must
	// evict, and the byte account must stay bounded.
	c := NewBlockCache(2 * 800)
	for i := 0; i < 100; i++ {
		c.get(context.Background(), fmt.Sprintf("m%d", i), func() (*dasf.Array2D, dasf.IOStats, error) {
			return block(100), dasf.IOStats{}, nil
		})
	}
	cs := c.Stats()
	if cs.Evictions != 98 || cs.Entries != 2 {
		t.Fatalf("after 100 members into a 2-member cache: %+v, want 98 evictions and 2 entries", cs)
	}
	if cs.Bytes > cs.Capacity {
		t.Fatalf("cache over budget: %d > %d", cs.Bytes, cs.Capacity)
	}
	// The two most recent members are the ones kept.
	if _, _, hit, _ := c.get(context.Background(), "m99", noLoad); !hit {
		t.Fatal("the most recent member was evicted")
	}
}

func TestBlockCacheSingleflight(t *testing.T) {
	c := NewBlockCache(1 << 20)
	ctx := context.Background()
	var loads atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	// First caller blocks inside the loader; the rest must coalesce onto it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.get(ctx, "a", func() (*dasf.Array2D, dasf.IOStats, error) {
			close(started)
			<-gate
			loads.Add(1)
			return block(100), dasf.IOStats{}, nil
		})
	}()
	<-started
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, hit, err := c.get(ctx, "a", func() (*dasf.Array2D, dasf.IOStats, error) {
				loads.Add(1)
				return block(100), dasf.IOStats{}, nil
			})
			if err != nil || !hit {
				t.Errorf("coalesced get: hit=%v err=%v", hit, err)
			}
		}()
	}
	// Wait until all followers are parked on the in-flight load, so the
	// test asserts genuine coalescing, not after-the-fact cache hits.
	waitParked(t, c, 8)
	close(gate)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times under concurrency, want 1", n)
	}
	if cs := c.Stats(); cs.Coalesced != 8 {
		t.Fatalf("coalesced = %d, want 8 (stats %+v)", cs.Coalesced, cs)
	}
}

func TestBlockCacheInvalidatePath(t *testing.T) {
	c := NewBlockCache(1 << 20)
	ctx := context.Background()
	load := func() (*dasf.Array2D, dasf.IOStats, error) { return block(10), dasf.IOStats{}, nil }
	for _, p := range []string{"a", "b", "c", "d"} {
		c.get(ctx, p, load)
	}
	c.InvalidatePath("a")
	c.InvalidatePath("nope") // not resident: nothing to drop
	if cs := c.Stats(); cs.Entries != 3 || cs.Bytes != 3*80 {
		t.Fatalf("after invalidate: %+v, want 3 entries of 80 bytes (b, c, d)", cs)
	}
	if _, _, hit, _ := c.get(ctx, "b", load); !hit {
		t.Fatal("path b should still be cached")
	}
	if _, _, hit, _ := c.get(ctx, "a", load); hit {
		t.Fatal("path a should have been invalidated")
	}
}

// TestBlockCacheInvalidationDuringLoad: a file that changes while the cache
// is loading it must not come back from the cache afterwards. The callers
// parked on the load before the invalidation get its result; a caller
// after it starts a load of its own, and the old load's array is never
// kept.
func TestBlockCacheInvalidationDuringLoad(t *testing.T) {
	c := NewBlockCache(1 << 20)
	ctx := context.Background()
	stale, fresh := block(10), block(10)
	gate, started := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		got, _, _, err := c.get(ctx, "a", func() (*dasf.Array2D, dasf.IOStats, error) {
			close(started)
			<-gate
			return stale, dasf.IOStats{}, nil
		})
		if err != nil || got != stale {
			t.Errorf("the loader got %p (err %v), its own load %p", got, err, stale)
		}
	}()
	<-started
	go func() {
		defer wg.Done()
		got, _, hit, err := c.get(ctx, "a", noLoad)
		if err != nil || !hit || got != stale {
			t.Errorf("the caller parked before the invalidation: hit=%v err=%v, got %p want %p", hit, err, got, stale)
		}
	}()
	waitParked(t, c, 1)

	c.InvalidatePath("a")
	after := make(chan *dasf.Array2D, 1)
	go func() {
		got, _, _, _ := c.get(ctx, "a", func() (*dasf.Array2D, dasf.IOStats, error) {
			return fresh, dasf.IOStats{}, nil
		})
		after <- got
	}()
	var got *dasf.Array2D
	select {
	case got = <-after:
	case <-time.After(5 * time.Second): // parked on the stale load
	}
	close(gate)
	wg.Wait()
	if got == nil {
		got = <-after
	}
	if got != fresh {
		t.Fatalf("a caller after the invalidation got the stale load=%v, want a fresh load", got == stale)
	}
	if got, _, hit, _ := c.get(ctx, "a", noLoad); !hit || got != fresh {
		t.Fatalf("after the stale load finished: hit=%v, stale=%v; want the fresh member", hit, got == stale)
	}

	// Invalidated with no one reloading, the finished load is not kept.
	gate, started = make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.get(ctx, "b", func() (*dasf.Array2D, dasf.IOStats, error) {
			close(started)
			<-gate
			return stale, dasf.IOStats{}, nil
		})
	}()
	<-started
	c.InvalidatePath("b")
	close(gate)
	<-done
	if _, _, hit, _ := c.get(ctx, "b", func() (*dasf.Array2D, dasf.IOStats, error) {
		return fresh, dasf.IOStats{}, nil
	}); hit {
		t.Fatal("the load invalidated in flight was kept")
	}
}

// cacheRecord writes four members of 6 channels × 200 samples, two
// contiguous float32 and two chunked float64, and returns their paths.
func cacheRecord(t *testing.T, dir string, seed int64) []string {
	t.Helper()
	var paths []string
	for _, compress := range []bool{false, true} {
		cfg := dasgen.Config{Channels: cacheRecordChannels, SampleRate: 50, FileSeconds: 4, NumFiles: 2, Seed: seed,
			DType: dasf.Float32, FilePrefix: "contiguous"}
		if compress {
			cfg.DType, cfg.Compress, cfg.FilePrefix = dasf.Float64, true, "chunked"
		}
		ps, err := dasgen.Generate(dir, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, ps...)
	}
	return paths
}

const (
	cacheRecordChannels = 6
	cacheRecordSamples  = 200
	cacheMemberBytes    = cacheRecordChannels * cacheRecordSamples * 8
)

// uncached reads a hyperslab straight from the file.
func uncached(path string, chLo, chHi, tLo, tHi int) (*dasf.Array2D, error) {
	r, err := dasf.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.ReadSlab(chLo, chHi, tLo, tHi)
}

// diffUncached is diffBits against an uncached read of the same hyperslab.
func diffUncached(got *dasf.Array2D, path string, chLo, chHi, tLo, tHi int) string {
	want, err := uncached(path, chLo, chHi, tLo, tHi)
	if err != nil {
		return err.Error()
	}
	return diffBits(got, want)
}

// randomSlab picks a whole-file read, a full-length channel band or a time
// cut, one in three each.
func randomSlab(rng *rand.Rand) (chLo, chHi, tLo, tHi int) {
	chLo, chHi, tLo, tHi = 0, cacheRecordChannels, 0, cacheRecordSamples
	switch rng.Intn(3) {
	case 1:
		chLo = rng.Intn(cacheRecordChannels)
		chHi = chLo + 1 + rng.Intn(cacheRecordChannels-chLo)
	case 2:
		chLo = rng.Intn(cacheRecordChannels)
		chHi = chLo + 1 + rng.Intn(cacheRecordChannels-chLo)
		tLo = rng.Intn(cacheRecordSamples)
		tHi = tLo + 1 + rng.Intn(cacheRecordSamples-tLo)
	}
	return
}

// TestBlockCacheTransparency: the cache changes where bytes come from,
// never what they are. Seeded interleavings of whole-file reads, channel
// bands, time cuts, invalidations, rewrites in place (each followed by its
// invalidation, as the ingester does) and the evictions they cause, at a
// budget of nothing, less than one member, a few members and every member:
// each read through SlabReader equals an uncached ReadSlab of the file bit
// for bit, a hit reports no I/O, and the cache never holds more than its
// budget. Then concurrent readers and invalidations, under the same checks.
func TestBlockCacheTransparency(t *testing.T) {
	dir := t.TempDir()
	paths := cacheRecord(t, dir, 21)
	alt := cacheRecord(t, t.TempDir(), 22)
	orig := make([][]byte, len(paths))
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		orig[i] = raw
	}
	ctx := context.Background()
	budgets := []struct {
		name  string
		bytes int64
	}{
		{"nothing", 0},
		{"below-one-member", cacheMemberBytes - 1},
		{"two-members", 2*cacheMemberBytes + cacheMemberBytes/2},
		{"every-member", int64(len(paths)) * cacheMemberBytes},
	}
	for bi, b := range budgets {
		t.Run(b.name, func(t *testing.T) {
			for i, p := range paths { // every budget starts from the first record
				if err := os.WriteFile(p, orig[i], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			c := NewBlockCache(b.bytes)
			read := c.SlabReader()
			rng := rand.New(rand.NewSource(int64(100 + bi)))
			for op := 0; op < 400; op++ {
				i := rng.Intn(len(paths))
				switch k := rng.Intn(10); {
				case k == 0:
					c.InvalidatePath(paths[i])
				case k == 1:
					src := orig[i]
					if rng.Intn(2) == 0 {
						raw, err := os.ReadFile(alt[i])
						if err != nil {
							t.Fatal(err)
						}
						src = raw
					}
					if err := os.WriteFile(paths[i], src, 0o644); err != nil {
						t.Fatal(err)
					}
					c.InvalidatePath(paths[i])
				default:
					chLo, chHi, tLo, tHi := randomSlab(rng)
					before := c.Stats()
					got, st, err := read(ctx, paths[i], chLo, chHi, tLo, tHi)
					if err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
					if d := diffUncached(got, paths[i], chLo, chHi, tLo, tHi); d != "" {
						t.Fatalf("op %d: member %d [%d:%d)×[%d:%d): %s", op, i, chLo, chHi, tLo, tHi, d)
					}
					after := c.Stats()
					if after.Hits > before.Hits && st != (dasf.IOStats{}) {
						t.Fatalf("op %d: a hit reported I/O %+v", op, st)
					}
					if after.Misses > before.Misses && st.Opens == 0 {
						t.Fatalf("op %d: a miss reported no open", op)
					}
					if after.Bytes > after.Capacity {
						t.Fatalf("op %d: cache over budget: %+v", op, after)
					}
				}
			}
			cs := c.Stats()
			switch {
			case b.bytes < cacheMemberBytes && (cs.Hits != 0 || cs.Entries != 0 || cs.Evictions != 0):
				t.Fatalf("no member fits, yet %+v", cs)
			case b.bytes == budgets[2].bytes && (cs.Evictions == 0 || cs.Hits == 0):
				t.Fatalf("a few members fit: want hits and evictions, %+v", cs)
			case b.bytes == budgets[3].bytes && (cs.Evictions != 0 || cs.Hits == 0):
				t.Fatalf("every member fits: want hits and no eviction, %+v", cs)
			}

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for op := 0; op < 60; op++ {
						i := rng.Intn(len(paths))
						if rng.Intn(10) == 0 {
							c.InvalidatePath(paths[i])
							continue
						}
						chLo, chHi, tLo, tHi := randomSlab(rng)
						got, _, err := read(ctx, paths[i], chLo, chHi, tLo, tHi)
						if err != nil {
							t.Errorf("concurrent read: %v", err)
							return
						}
						if d := diffUncached(got, paths[i], chLo, chHi, tLo, tHi); d != "" {
							t.Errorf("concurrent read of member %d [%d:%d)×[%d:%d): %s", i, chLo, chHi, tLo, tHi, d)
							return
						}
						if cs := c.Stats(); cs.Bytes > cs.Capacity {
							t.Errorf("cache over budget: %+v", cs)
							return
						}
					}
				}(int64(1000*bi + g))
			}
			wg.Wait()
		})
	}
}

// TestBlockCacheCoalescesBandAndWholeRead: a channel band and a whole-file
// read of one member, at the same time, are one disk read — the member is
// the key, not the rectangle.
func TestBlockCacheCoalescesBandAndWholeRead(t *testing.T) {
	path := cacheRecord(t, t.TempDir(), 21)[0]
	c := NewBlockCache(1 << 20)
	ctx := context.Background()
	gate, opened := make(chan struct{}), make(chan struct{}, 1)
	gated := c.slabReader(func(ctx context.Context, p string) (*dasf.Reader, error) {
		select {
		case opened <- struct{}{}:
		default:
		}
		<-gate
		return dasf.OpenContext(ctx, p)
	})
	var band, whole *dasf.Array2D
	var bandErr, wholeErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		band, _, bandErr = gated(ctx, path, 1, 4, 0, cacheRecordSamples)
	}()
	<-opened
	go func() {
		defer wg.Done()
		whole, _, wholeErr = c.SlabReader()(ctx, path, 0, cacheRecordChannels, 0, cacheRecordSamples)
	}()
	waitParked(t, c, 1)
	close(gate)
	wg.Wait()
	if bandErr != nil || wholeErr != nil {
		t.Fatalf("band: %v, whole: %v", bandErr, wholeErr)
	}
	if d := diffUncached(band, path, 1, 4, 0, cacheRecordSamples); d != "" {
		t.Fatalf("band: %s", d)
	}
	if d := diffUncached(whole, path, 0, cacheRecordChannels, 0, cacheRecordSamples); d != "" {
		t.Fatalf("whole: %s", d)
	}
	if cs := c.Stats(); cs.Misses != 1 || cs.Coalesced != 1 {
		t.Fatalf("stats %+v, want 1 miss and 1 coalesced", cs)
	}
}
