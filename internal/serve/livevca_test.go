package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/testutil/leakcheck"
)

// TestLiveVCAIsServedWindow: after every poll of a seeded run of arrivals,
// late arrivals, deletions, in-place rewrites with a new length and a
// retention drop, the live VCA's members are the served catalog's entries,
// and reading it returns their samples. While a file of another channel
// count is in the window the rewrite fails, VCAErrors counts it, and the
// previous VCA still opens. A fresh ingester trims a longer VCA it finds to
// its own window on its first scan.
func TestLiveVCAIsServedWindow(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { checkLiveVCAWindow(t, seed) })
	}
}

func checkLiveVCAWindow(t *testing.T, seed int64) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	live := filepath.Join(dir, LiveVCAName)
	const base, nch, retain, polls = int64(170620100000), 4, 6, 60
	write := func(ts int64, channels, samples int) string {
		arr := dasf.NewArray2D(channels, samples)
		for i := range arr.Data {
			arr.Data[i] = rng.NormFloat64()
		}
		meta := dasf.Meta{dasf.KeyTimeStamp: dasf.S(fmt.Sprintf("%012d", ts)), dasf.KeySamplingFrequency: dasf.I(50)}
		path := filepath.Join(dir, fmt.Sprintf("west_%012d.dasf", ts))
		if err := dasf.WriteData(path, meta, nil, arr, dasf.Float64); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Arrivals take even slots; a late arrival takes a free odd slot below
	// the newest, so no path is ever reused.
	next, used := int64(0), map[int64]bool{}
	samples := map[string]int{} // path → its current length
	arriveNew := func(late bool) {
		slot := 2 * next
		if late {
			if next == 0 {
				return
			}
			slot = 2*rng.Int63n(next) + 1
			if used[slot] {
				return
			}
		} else {
			next++
		}
		used[slot] = true
		p := write(base+slot, nch, 50)
		samples[p] = 50
	}
	pick := func() (string, bool) {
		if len(samples) == 0 {
			return "", false
		}
		var paths []string
		for p := range samples {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		return paths[rng.Intn(len(paths))], true
	}

	ing := NewIngester(IngestConfig{Dir: dir, Poll: time.Hour, RetainFiles: retain, LiveVCA: true}, nil)
	var good []dass.Entry // the window the live VCA last covered
	oddPath, sawOdd := "", false
	for poll := 0; poll < polls; poll++ {
		for ops := 1 + rng.Intn(2); ops > 0; ops-- {
			switch op := rng.Intn(8); {
			case op < 4:
				arriveNew(false)
			case op < 5:
				arriveNew(true)
			case op < 6: // deletion
				if p, ok := pick(); ok {
					if err := os.Remove(p); err != nil {
						t.Fatal(err)
					}
					delete(samples, p)
				}
			default: // in-place rewrite with a new length
				if p, ok := pick(); ok {
					var ts int64
					fmt.Sscanf(filepath.Base(p), "west_%d.dasf", &ts)
					n := samples[p] + 1 + rng.Intn(20)
					write(ts, nch, n)
					samples[p] = n
				}
			}
		}
		if poll == polls/3 { // one arrival of another channel count
			oddPath = write(base+2*next, nch+1, 50)
			next++
		}
		before := ing.Stats()
		if err := ing.ScanOnce(); err != nil {
			t.Fatal(err)
		}
		after := ing.Stats()
		entries := ing.Catalog().Entries()
		odd := false
		for _, e := range entries {
			odd = odd || e.Info.NumChannels != nch
		}
		if odd {
			sawOdd = true
			if after.FilesIngested+after.FilesChanged+after.FilesRemoved !=
				before.FilesIngested+before.FilesChanged+before.FilesRemoved &&
				after.VCAErrors == before.VCAErrors {
				t.Fatalf("poll %d: a window of mixed channel counts changed and no VCA error was counted", poll)
			}
			if _, err := dass.OpenView(live); err != nil {
				t.Fatalf("poll %d: the previous live VCA no longer opens: %v", poll, err)
			}
			checkLiveMembers(t, poll, live, good)
			continue
		}
		if after.VCAErrors != before.VCAErrors {
			t.Fatalf("poll %d: %d VCA errors over a mergeable window", poll, after.VCAErrors-before.VCAErrors)
		}
		good = entries
		checkLiveVCA(t, poll, live, entries)
	}
	if !sawOdd || ing.Stats().VCAErrors == 0 {
		t.Fatalf("the odd channel count was never in the window (seen %v, errors %d)", sawOdd, ing.Stats().VCAErrors)
	}

	// The odd file leaves, more minutes arrive, and a fresh ingester with a
	// shorter window starts over the directory.
	if err := os.Remove(oddPath); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for i := 0; i < retain; i++ {
		arriveNew(false)
	}
	if err := ing.ScanOnce(); err != nil {
		t.Fatal(err)
	}
	checkLiveVCA(t, polls, live, ing.Catalog().Entries())
	fresh := NewIngester(IngestConfig{Dir: dir, Poll: time.Hour, RetainFiles: retain / 2, LiveVCA: true}, nil)
	if err := fresh.ScanOnce(); err != nil {
		t.Fatal(err)
	}
	entries := fresh.Catalog().Entries()
	if len(entries) != retain/2 {
		t.Fatalf("fresh ingester serves %d files, want %d", len(entries), retain/2)
	}
	checkLiveVCA(t, polls+1, live, entries)
}

// checkLiveMembers asserts that the live VCA's member table is entries: the
// same files, lengths and timestamps, in order.
func checkLiveMembers(t *testing.T, poll int, live string, entries []dass.Entry) {
	t.Helper()
	info, _, err := dasf.ReadInfo(live)
	if err != nil {
		t.Fatalf("poll %d: live VCA: %v", poll, err)
	}
	if len(info.Members) != len(entries) {
		t.Fatalf("poll %d: live VCA has %d members, the window %d", poll, len(info.Members), len(entries))
	}
	for i, m := range info.Members {
		e := entries[i]
		if m.Name != e.Path || m.NumSamples != e.Info.NumSamples || m.Timestamp != e.Timestamp {
			t.Fatalf("poll %d: member %d is %s (%d samples, ts %d); the window has %s (%d, %d)",
				poll, i, m.Name, m.NumSamples, m.Timestamp, e.Path, e.Info.NumSamples, e.Timestamp)
		}
	}
}

// checkLiveVCA asserts that the live VCA is the window entries: its members
// match and reading it returns their samples. An empty window has no VCA.
func checkLiveVCA(t *testing.T, poll int, live string, entries []dass.Entry) {
	t.Helper()
	if len(entries) == 0 {
		if _, err := os.Stat(live); !os.IsNotExist(err) {
			t.Fatalf("poll %d: empty window, but the live VCA is there (stat: %v)", poll, err)
		}
		return
	}
	checkLiveMembers(t, poll, live, entries)
	v, err := dass.OpenView(live)
	if err != nil {
		t.Fatalf("poll %d: %v", poll, err)
	}
	got, _, err := v.Read()
	if err != nil {
		t.Fatalf("poll %d: reading the live VCA: %v", poll, err)
	}
	off := 0
	for _, e := range entries {
		r, err := dasf.Open(e.Path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.ReadAll()
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < want.Channels; c++ {
			row := got.Row(c)[off : off+want.Samples]
			for i, w := range want.Row(c) {
				if row[i] != w {
					t.Fatalf("poll %d: live VCA channel %d sample %d is %g; %s has %g",
						poll, c, off+i, row[i], e.Path, w)
				}
			}
		}
		off += want.Samples
	}
}

// TestIngestSoak runs a month of arrivals in compressed time: thousands of
// small files through ScanOnce under a retention window, an archiver that
// deletes what is past twice the window, and a /detect every 25th arrival.
// Past warm-up the live VCA holds the window at a constant size, the
// ingester remembers no more than the window, every /detect answers 200 or
// 429, and the live heap does not grow.
func TestIngestSoak(t *testing.T) {
	leakcheck.Check(t)
	const arrivals, retain, detectEvery = 3000, 16, 25
	dir := t.TempDir()
	live := filepath.Join(dir, LiveVCAName)
	s := NewServer(Config{
		Ingest:     IngestConfig{Dir: dir, Poll: time.Hour, RetainFiles: retain, LiveVCA: true},
		CacheBytes: 1 << 20,
		Nodes:      1, CoresPerNode: 2,
	})
	ing, h := s.Ingester(), s.Handler()
	staged := stageFiles(t, arrivals)

	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var vcaSize int64 = -1
	var heapQuarter, heapEnd uint64
	var slowest time.Duration
	var total time.Duration
	for i, p := range staged {
		arrive(t, dir, p)
		if i >= 2*retain {
			if err := os.Remove(filepath.Join(dir, filepath.Base(staged[i-2*retain]))); err != nil {
				t.Fatal(err)
			}
		}
		t0 := time.Now()
		if err := ing.ScanOnce(); err != nil {
			t.Fatal(err)
		}
		d := time.Since(t0)
		total += d
		slowest = max(slowest, d)
		if i%detectEvery == detectEvery-1 {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/detect?op=localsimi", nil))
			if rec.Code != http.StatusOK && rec.Code != http.StatusTooManyRequests {
				t.Fatalf("arrival %d: /detect answered %d: %s", i, rec.Code, rec.Body.String())
			}
		}
		if i < retain {
			continue
		}
		// Past warm-up: the window is full and the VCA is exactly it.
		info, _, err := dasf.ReadInfo(live)
		if err != nil {
			t.Fatalf("arrival %d: %v", i, err)
		}
		fi, err := os.Stat(live)
		if err != nil {
			t.Fatal(err)
		}
		if len(info.Members) != retain {
			t.Fatalf("arrival %d: live VCA has %d members, want %d", i, len(info.Members), retain)
		}
		if vcaSize < 0 {
			vcaSize = fi.Size()
		} else if fi.Size() != vcaSize {
			t.Fatalf("arrival %d: live VCA is %d bytes, was %d", i, fi.Size(), vcaSize)
		}
		if len(ing.known) > retain {
			t.Fatalf("arrival %d: the ingester remembers %d files, the window is %d", i, len(ing.known), retain)
		}
		switch i {
		case arrivals/4 - 1:
			heapQuarter = heap()
		case arrivals - 1:
			if heapEnd = heap(); heapEnd > heapQuarter+1<<20 {
				t.Fatalf("live heap grew from %d to %d bytes between the first quarter and the end", heapQuarter, heapEnd)
			}
		}
	}
	t.Logf("%d arrivals: mean poll %v, slowest %v; live heap %d → %d bytes",
		arrivals, total/time.Duration(arrivals), slowest, heapQuarter, heapEnd)
}
