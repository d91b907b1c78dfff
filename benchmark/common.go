package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/faults"
	"dassa/internal/obs"
)

// Load shape shared by every workload: the engine layout is fixed and the
// load generator is a closed loop with one client. The reference box has two
// cores and the engine's team (or the two cluster workers) already fills
// them; a second client would make every latency a measurement of the
// scheduler.
const (
	engineNodes = 1
	engineCores = 2
	clients     = 1
)

// A window's end-to-end numbers are those of its quietest stretch: the
// operations are cut, in order, into up to quietSegments runs of at least
// minSegmentOps each, and the best run's median latency and throughput are
// reported. The reference box is a shared host whose neighbours slow it for
// seconds at a time and never speed it up, so the best stretch is what the
// program costs; a change to the program moves every stretch alike.
const (
	quietSegments = 32
	minSegmentOps = 4
)

// scale sizes the datasets. Dataset sizes never shrink to save time — only
// the measured seconds do — because the cache working set and the
// stencil/FFT balance depend on them.
type scale struct {
	Name       string  `json:"name"`
	Channels   int     `json:"channels"`
	SampleRate float64 `json:"sample_rate_hz"`
	// D_batch: the offline analysis record.
	BatchFiles   int     `json:"batch_files"`
	BatchFileSec float64 `json:"batch_file_seconds"`
	// D_serve: the served record; ServeCacheBytes is dassd's default.
	ServeFiles   int     `json:"serve_files"`
	ServeFileSec float64 `json:"serve_file_seconds"`
	// D_ingest: IngestPreload files in the watched dir at start,
	// IngestStaged more arriving one per cycle; the retained working set
	// (IngestRetain files) is larger than IngestCacheBytes on purpose.
	IngestPreload    int   `json:"ingest_preload_files"`
	IngestStaged     int   `json:"ingest_staged_files"`
	IngestRetain     int   `json:"ingest_retain_files"`
	IngestCacheBytes int64 `json:"ingest_cache_bytes"`
	// D_layer: the small record the layer microbenchmarks read.
	LayerFiles int `json:"layer_files"`
	// SetupRepeats is how many times an untraced run sets up; setup_s is
	// the median. Warmups precede every timed window.
	SetupRepeats int `json:"setup_repeats"`
	BatchWarmups int `json:"batch_warmups"`
}

var scales = map[string]scale{
	"full": {
		Name: "full", Channels: 128, SampleRate: 250,
		BatchFiles: 32, BatchFileSec: 8,
		ServeFiles: 24, ServeFileSec: 4,
		IngestPreload: 32, IngestStaged: 400, IngestRetain: 32, IngestCacheBytes: 16 << 20,
		LayerFiles:   8,
		SetupRepeats: 3, BatchWarmups: 1,
	},
	// smoke keeps every code path and every gate, at a size the tier-1 test
	// run can afford.
	"smoke": {
		Name: "smoke", Channels: 32, SampleRate: 250,
		BatchFiles: 4, BatchFileSec: 4,
		ServeFiles: 8, ServeFileSec: 4,
		IngestPreload: 12, IngestStaged: 24, IngestRetain: 12, IngestCacheBytes: 512 << 10,
		LayerFiles:   3,
		SetupRepeats: 1, BatchWarmups: 1,
	},
}

// record is one generated acquisition.
type record struct {
	cfg   dasgen.Config
	dir   string
	paths []string
	bytes int64 // decoded float64 size is 2× this (files store float32)
	genNS int64
}

// generate writes files×fileSec seconds of synthetic DAS data with the
// Figure 10 event mix planted, float32 as instruments record it.
func generate(dir string, sc scale, files int, fileSec float64, seed int64) (*record, error) {
	cfg := dasgen.Config{
		Channels: sc.Channels, SampleRate: sc.SampleRate,
		FileSeconds: fileSec, NumFiles: files, Seed: seed, DType: dasf.Float32,
	}
	t0 := time.Now()
	paths, err := dasgen.Generate(dir, cfg, dasgen.Fig10Events(cfg))
	if err != nil {
		return nil, err
	}
	r := &record{cfg: cfg, dir: dir, paths: paths, genNS: time.Since(t0).Nanoseconds()}
	r.bytes = int64(files) * int64(sc.Channels) * int64(cfg.SamplesPerFile()) * 4
	return r, nil
}

// quake returns the planted earthquake, from the same geometry dasgen
// plants.
func (r *record) quake() dasgen.Earthquake {
	for _, ev := range dasgen.Fig10Events(r.cfg) {
		if q, ok := ev.(dasgen.Earthquake); ok {
			return q
		}
	}
	panic("benchmark: Fig10Events has no earthquake")
}

// opRec is one successful operation of a window.
type opRec struct {
	class string
	ms    float64       // client-side latency
	done  time.Duration // since the window opened; the operation's checks are over
}

// window is the outcome of one timed window: the successful operations in
// the order the one client completed them, and every operation counted
// against attempts.
type window struct {
	start     time.Time
	attempted int
	failed    int
	ops       []opRec
	lat       map[string][]float64 // class → ms, successes only
	why       []string             // first few failure messages
	// sums accumulates the program's public counters over the window
	// (report phase times, cache and wire deltas, response bytes).
	sums    map[string]float64
	elapsed time.Duration
}

// newWindow opens a window: its clock starts now.
func newWindow() *window {
	return &window{start: time.Now(), lat: map[string][]float64{}, sums: map[string]float64{}}
}

func (w *window) add(key string, v float64) { w.sums[key] += v }

// ok records a successful operation of the class. It is called once the
// operation's checks are done, so the time they take lies between this
// operation's done and the next one's.
func (w *window) ok(class string, d time.Duration) {
	w.attempted++
	w.ops = append(w.ops, opRec{class: class, ms: ms(d), done: time.Since(w.start)})
	w.lat[class] = append(w.lat[class], ms(d))
}

// sample records the duration of a step inside an operation; it counts no
// operation.
func (w *window) sample(class string, d time.Duration) {
	w.lat[class] = append(w.lat[class], ms(d))
}

// fail records a failed operation; it contributes no latency sample.
func (w *window) fail(class, format string, args ...any) {
	w.attempted++
	w.failed++
	if len(w.why) < 5 {
		w.why = append(w.why, class+": "+fmt.Sprintf(format, args...))
	}
}

func (w *window) successes() int { return w.attempted - w.failed }

// opsPerSec is successful operations per second of the window's wall time.
func (w *window) opsPerSec() float64 {
	return ratio(float64(w.successes()), w.elapsed.Seconds())
}

// quiet reduces the window to its quietest stretch: the lowest median
// latency of class, and the highest rate of successful operations of every
// class, that any one segment reached.
func (w *window) quiet(class string) (p50ms, opsPerSec float64) {
	k := max(min(quietSegments, len(w.ops)/minSegmentOps), 1)
	var from time.Duration
	for i := 0; i < k; i++ {
		seg := w.ops[i*len(w.ops)/k : (i+1)*len(w.ops)/k]
		if len(seg) == 0 {
			continue
		}
		var lat []float64
		for _, op := range seg {
			if op.class == class {
				lat = append(lat, op.ms)
			}
		}
		if m := median(lat); len(lat) > 0 && (p50ms == 0 || m < p50ms) {
			p50ms = m
		}
		to := seg[len(seg)-1].done
		opsPerSec = max(opsPerSec, ratio(float64(len(seg)), (to-from).Seconds()))
		from = to
	}
	return p50ms, opsPerSec
}

// envBlock records where and how a result was measured.
type envBlock struct {
	GoVersion    string  `json:"go_version"`
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NProc        int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	BuildVersion string  `json:"build_version"`
	BuildCommit  string  `json:"build_commit"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"run_seconds"`
	EngineNodes  int     `json:"engine_nodes"`
	EngineCores  int     `json:"engine_cores_per_node"`
	Clients      int     `json:"closed_loop_clients"`
	Scale        scale   `json:"scale"`
}

func newEnv(seed int64, seconds float64, sc scale) envBlock {
	return envBlock{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPUModel: cpuModel(),
		BuildVersion: obs.BuildVersion, BuildCommit: obs.BuildCommit,
		Seed: seed, Seconds: seconds,
		EngineNodes: engineNodes, EngineCores: engineCores, Clients: clients, Scale: sc,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// assertCleanProcess checks the process-wide hooks a previous run could
// have left behind: a fault injector or a retry policy would change what
// every storage read costs.
func assertCleanProcess() error {
	if dasf.Injector() != nil {
		return fmt.Errorf("a dasf fault injector is installed")
	}
	if !reflect.DeepEqual(dasf.RetryPolicy(), faults.RetryPolicy{}) {
		return fmt.Errorf("a non-default dasf retry policy is installed")
	}
	return nil
}

// settleGoroutines waits for the goroutine count to come back to baseline
// after a workload closed its servers, workers and coordinator.
func settleGoroutines(baseline int) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running, baseline %d", n, baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fileBytes sums the sizes of the files.
func fileBytes(paths []string) (int64, error) {
	var n int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// copyFile copies src to dst, for staging arrivals.
func copyFile(src, dst string) error {
	raw, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, raw, 0o644)
}

// sameBits reports whether two float64 slices are bit-identical (NaN
// payloads included), the comparison a determinism gate needs.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
