package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net"
	"os"
	"strconv"
	"testing"
	"time"

	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/scores"
	"dassa/internal/testutil/leakcheck"
	"dassa/internal/wire"
)

// makeView generates a synthetic file series and opens the full window.
func makeView(t *testing.T, channels, files int) (*dass.View, float64) {
	t.Helper()
	dir := t.TempDir()
	cfg := dasgen.Config{
		Channels: channels, SampleRate: 50, FileSeconds: 2, NumFiles: files,
		Seed: 11, DType: dasf.Float64,
	}
	if _, err := dasgen.Generate(dir, cfg, dasgen.Fig10Events(cfg)); err != nil {
		t.Fatal(err)
	}
	cat, err := dass.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, err := dass.ViewOver(cat.Entries())
	if err != nil {
		t.Fatal(err)
	}
	return v, cfg.SampleRate
}

// startWorker serves a shard worker on a loopback listener and returns it
// with its address. Close is registered for cleanup (idempotent, so tests
// that kill the worker themselves are fine).
func startWorker(t *testing.T, cfg WorkerConfig) (*Worker, string) {
	t.Helper()
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 100 * time.Millisecond
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(cfg)
	go func() { _ = w.Serve(ln) }()
	t.Cleanup(w.Close)
	return w, ln.Addr().String()
}

// newCoord builds a coordinator over addrs with fast test timings.
func newCoord(t *testing.T, addrs []string, mutate func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{
		Workers:        addrs,
		HeartbeatEvery: 100 * time.Millisecond,
		DialTimeout:    2 * time.Second,
		RedialBackoff:  50 * time.Millisecond,
		FailPolicy:     dass.FailDegrade,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co
}

// shardFrame is the frame a coordinator cuts for p over rows [lo, hi) of the
// whole of v.
func shardFrame(t *testing.T, p detect.Params, v *dass.View, lo, hi int) wire.ShardRequest {
	t.Helper()
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filesOf(v)
	if err != nil {
		t.Fatal(err)
	}
	nch, nt := v.Shape()
	return wire.ShardRequest{
		ID: 1, Op: p.Op(), Params: raw, Files: files,
		ChLo: lo, ChHi: hi, WinChLo: 0, WinChHi: nch, T0: 0, T1: nt,
	}
}

// sameValues compares arrays elementwise, NaN-aware.
func sameValues(t *testing.T, got, want *dasf.Array2D) {
	t.Helper()
	if got.Channels != want.Channels || got.Samples != want.Samples {
		t.Fatalf("shape mismatch: got %d×%d want %d×%d",
			got.Channels, got.Samples, want.Channels, want.Samples)
	}
	for i := range want.Data {
		g, w := got.Data[i], want.Data[i]
		if g == w || (math.IsNaN(g) && math.IsNaN(w)) {
			continue
		}
		t.Fatalf("data[%d]: got %v want %v", i, g, w)
	}
}

func TestClusterReadMatchesLocal(t *testing.T) {
	leakcheck.Check(t)
	v, _ := makeView(t, 16, 3)
	_, a1 := startWorker(t, WorkerConfig{})
	_, a2 := startWorker(t, WorkerConfig{})
	_ = a1
	co := newCoord(t, []string{a1, a2}, nil)

	res, err := co.Run(context.Background(), Request{View: v, Op: OpRead, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, res.Data, want)
	if res.Quality.Degraded() {
		t.Fatalf("clean read reported degraded: %v", res.Quality)
	}
	if res.Shards != 5 || res.Workers < 1 {
		t.Fatalf("run stats wrong: %+v", res)
	}
	if res.Trace.BytesRead == 0 {
		t.Fatal("merged trace carries no worker I/O")
	}
}

func TestClusterLocalSimiMatchesLocal(t *testing.T) {
	leakcheck.Check(t)
	v, rate := makeView(t, 24, 2)
	opt := core.DefaultLocalSimi(rate)
	_, a1 := startWorker(t, WorkerConfig{})
	_, a2 := startWorker(t, WorkerConfig{})
	co := newCoord(t, []string{a1, a2}, nil)

	res, err := co.Run(context.Background(), Request{
		View: v, Op: OpLocalSimi, Rate: rate, LocalSimi: opt.LocalSimiParams, Shards: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	fw := core.New(core.Config{Nodes: 1, CoresPerNode: 4})
	want, _, _, err := fw.LocalSimilarity(v, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, res.Data, want)
}

func TestClusterSTALTAOnSubsetWindow(t *testing.T) {
	leakcheck.Check(t)
	v, _ := makeView(t, 24, 3)
	_, nt := v.Shape()
	sub, err := v.Subset(4, 20, nt/4, nt-nt/4)
	if err != nil {
		t.Fatal(err)
	}
	p := detect.STALTAParams{STASamples: 5, LTASamples: 25, Stride: 5}
	_, a1 := startWorker(t, WorkerConfig{})
	co := newCoord(t, []string{a1}, nil)

	res, err := co.Run(context.Background(), Request{View: sub, Params: &p, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	fw := core.New(core.Config{Nodes: 1, CoresPerNode: 4})
	want, _, err := fw.Run(sub, &p, "")
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, res.Data, want)
}

func TestClusterNoWorkers(t *testing.T) {
	leakcheck.Check(t)
	v, _ := makeView(t, 8, 1)
	co := newCoord(t, []string{"127.0.0.1:1"}, func(c *Config) {
		c.DialTimeout = 100 * time.Millisecond
	})
	_, err := co.Run(context.Background(), Request{View: v, Op: OpRead})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("want ErrNoWorkers, got %v", err)
	}
}

func TestClusterRejectsBadRequests(t *testing.T) {
	leakcheck.Check(t)
	v, _ := makeView(t, 8, 1)
	_, a1 := startWorker(t, WorkerConfig{})
	co := newCoord(t, []string{a1}, nil)
	if _, err := co.Run(context.Background(), Request{View: v, Op: "bogus"}); err == nil {
		t.Fatal("bogus op accepted")
	}
	if _, err := co.Run(context.Background(), Request{View: v, Params: unregistered{}}); err == nil {
		t.Fatal("parameters of an unregistered op accepted")
	}
	if _, err := co.Run(context.Background(), Request{Op: OpRead}); err == nil {
		t.Fatal("nil view accepted")
	}
	// Detector parameters the window cannot hold are refused before a
	// shard is cut, as the caller's mistake — in either spelling.
	for _, req := range []Request{
		{View: v, Op: OpLocalSimi, LocalSimi: detect.LocalSimiParams{M: 3000000000, K: 1, L: 4}},
		{View: v, Params: &detect.LocalSimiParams{M: 5, K: 8, L: 1}},
		{View: v, Params: &detect.STALTAParams{STASamples: 2, LTASamples: 3000000000}},
		{View: v, Params: &detect.STALTAParams{STASamples: 2, LTASamples: 8, Stride: math.MaxInt}},
	} {
		if _, err := co.Run(context.Background(), req); !errors.Is(err, detect.ErrBadParams) {
			t.Errorf("%s %+v %+v: want ErrBadParams, got %v", req.Op, req.LocalSimi, req.Params, err)
		}
	}
	// A rows op reads its master channel through the view, outside any
	// shard: refused by what its workload is, whatever it is called.
	for _, op := range detect.Ops() {
		nch, nt := v.Shape()
		p := op.Default(50, nt)
		if p.Validate(nch, nt) != nil || p.Workload(nt).Prepare == nil {
			continue
		}
		if _, err := co.Run(context.Background(), Request{View: v, Params: p}); !errors.Is(err, ErrNotShardable) {
			t.Errorf("%s: want ErrNotShardable, got %v", op.Name, err)
		}
	}
}

// unregistered is a parameter block no registered op owns.
type unregistered struct{ detect.STALTAParams }

func (unregistered) Op() string { return "never-registered" }

func TestWorkerDrainRefusesNewWork(t *testing.T) {
	leakcheck.Check(t)
	v, _ := makeView(t, 8, 1)
	w, a1 := startWorker(t, WorkerConfig{})
	co := newCoord(t, []string{a1}, nil)

	// A clean run, then drain, then the next run finds no worker.
	if _, err := co.Run(context.Background(), Request{View: v, Op: OpRead}); err != nil {
		t.Fatal(err)
	}
	w.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := co.Run(ctx, Request{View: v, Op: OpRead})
	if err == nil {
		t.Fatal("run against a drained worker succeeded")
	}
}

func TestViewSpecRoundTrip(t *testing.T) {
	v, _ := makeView(t, 8, 3)
	files, err := filesOf(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("filesOf returned %d specs, want 3", len(files))
	}
	back, err := dass.ViewOver(entriesOf(files))
	if err != nil {
		t.Fatal(err)
	}
	wn, wt := v.Shape()
	bn, bt := back.Shape()
	if wn != bn || wt != bt {
		t.Fatalf("round-tripped shape %d×%d, want %d×%d", bn, bt, wn, wt)
	}
	data, _, err := back.Read()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, data, want)
}

func TestExecuteShardDeadline(t *testing.T) {
	leakcheck.Check(t)
	v, _ := makeView(t, 8, 2)
	files, err := filesOf(v)
	if err != nil {
		t.Fatal(err)
	}
	req := wire.ShardRequest{
		ID: 1, Op: string(OpRead), Files: files,
		ChLo: 0, ChHi: 8, WinChHi: 8, T0: 0, T1: 10,
		DeadlineUnixNano: time.Now().Add(-time.Second).UnixNano(),
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, req.DeadlineUnixNano))
	defer cancel()
	if _, _, err := executeShard(ctx, req, 2, nil); !dass.IsCancellation(err) {
		t.Fatalf("expired deadline: want cancellation, got %v", err)
	}
}

// TestExecuteShardAllocsPerShardNotPerCell: the worker runs the same
// scratch-aware engine loop as an in-process /detect, so what a shard
// allocates is set-up (view, block read, thread team, output) and does not
// grow with the number of cells it evaluates. The nil-scratch shim the
// worker used to pass allocated a stencil plus three windows per cell.
func TestExecuteShardAllocsPerShardNotPerCell(t *testing.T) {
	v, _ := makeView(t, 8, 2)
	nch, nt := v.Shape()
	for _, at := range []func(stride int) detect.Params{
		func(stride int) detect.Params { return &detect.LocalSimiParams{M: 3, K: 1, L: 1, Stride: stride} },
		func(stride int) detect.Params {
			return &detect.STALTAParams{STASamples: 2, LTASamples: 8, Stride: stride}
		},
	} {
		op := at(1).Op()
		allocs := func(stride int) float64 {
			req := shardFrame(t, at(stride), v, 0, nch)
			return testing.AllocsPerRun(5, func() {
				if _, _, err := executeShard(context.Background(), req, 1, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
		coarse, fine := allocs(nt), allocs(1) // nch cells vs nch×nt cells
		cells := float64(nch * nt)
		t.Logf("%s: %.0f allocs for %d cells, %.0f for %.0f cells", op, coarse, nch, fine, cells)
		if fine-coarse > cells/50 {
			t.Errorf("%s: %.0f more allocations for %.0f more cells: the shard allocates per cell", op, fine-coarse, cells-float64(nch))
		}
	}
}

// TestExecuteShardScores: a worker keeps the score tiles of the shards it
// computed. The same whole-file shard asked again is assembled from them,
// every tile a hit, with the bits of a run without a store; a member
// rewritten (a new stamp) misses its tiles; and a shard that cuts its files
// runs without the store.
func TestExecuteShardScores(t *testing.T) {
	v, _ := makeView(t, 8, 3)
	_, nt := v.Shape()
	req := shardFrame(t, &detect.LocalSimiParams{M: 3, K: 1, L: 1, Stride: 4}, v, 2, 6)
	st := scores.NewLRU(1 << 20)
	shard := func(req wire.ShardRequest, st *scores.LRU) []float64 {
		t.Helper()
		_, data, err := executeShard(context.Background(), req, 2, st)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	same := func(step string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: value %d = %v, without a store %v", step, i, got[i], want[i])
			}
		}
	}
	want := shard(req, nil)

	same("cold", shard(req, st), want)
	cold := st.Stats()
	if cold.Entries == 0 || cold.Hits != 0 {
		t.Fatalf("cold shard: store %+v, want tiles stored and no hit", cold)
	}
	same("warm", shard(req, st), want)
	warm := st.Stats()
	if warm.Hits-cold.Hits != cold.Entries || warm.Misses != cold.Misses {
		t.Fatalf("warm shard: store %+v after %+v, want every tile a hit", warm, cold)
	}

	mt := time.Now().Add(time.Hour)
	if err := os.Chtimes(req.Files[1].Path, mt, mt); err != nil {
		t.Fatal(err)
	}
	same("member restamped", shard(req, st), want)
	if re := st.Stats(); re.Misses == warm.Misses || re.Hits == warm.Hits {
		t.Fatalf("member restamped: store %+v after %+v, want its tiles missed and the others hit", re, warm)
	}

	cut := req
	cut.T0 = nt / 2
	before := st.Stats()
	same("cut shard", shard(cut, st), shard(cut, nil))
	if after := st.Stats(); after != before {
		t.Fatalf("a shard that cuts its files used the store: %+v after %+v", after, before)
	}
}

// TestHeadCutWindowThenWholeWindow: a window [0, T) that ends inside the file
// set starts at sample 0 but does not span its files whole, so a worker must
// not key its tiles as whole-file ones. One worker, with its store, serves
// such a window and then the whole window twice, at seeded cut points inside
// the last member and one on a member boundary; every result is the
// in-process run's over the same view.
func TestHeadCutWindowThenWholeWindow(t *testing.T) {
	leakcheck.Check(t)
	v, _ := makeView(t, 12, 3)
	nch, nt := v.Shape()
	member := nt / 3
	rng := rand.New(rand.NewSource(38))
	cuts := []int{2 * member}
	for len(cuts) < 4 {
		cuts = append(cuts, 2*member+1+rng.Intn(member-1))
	}
	p := &detect.LocalSimiParams{M: 3, K: 1, L: 1, Stride: 4}
	fw := core.New(core.Config{CoresPerNode: 2})
	for _, cut := range cuts {
		t.Run(strconv.Itoa(cut), func(t *testing.T) {
			head, err := v.Subset(0, nch, 0, cut)
			if err != nil {
				t.Fatal(err)
			}
			_, addr := startWorker(t, WorkerConfig{Cores: 2})
			co := newCoord(t, []string{addr}, nil)
			for i, win := range []*dass.View{head, v, v} {
				res, err := co.Run(context.Background(), Request{View: win, Params: p, Shards: 2})
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if res.Degraded() {
					t.Fatalf("request %d: degraded (%d shards lost)", i, res.DegradedShards)
				}
				want, _, err := fw.Run(win, p, "")
				if err != nil {
					t.Fatal(err)
				}
				sameValues(t, res.Data, want)
			}
		})
	}
}
