package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
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
	"dassa/internal/testutil/leakcheck"
)

// roughness is an analysis only this file knows: per cell, how far a sample
// stands from the mean of its two neighbouring channels. A points op with a
// one-channel halo, registered like any other; no non-test file names it.
type roughness struct {
	Stride int `json:"stride" key:"stride" help:"evaluate every N samples"`
	// Hold, when 1, parks the first cell on roughGate until the test lets go:
	// a detection that stalls while it owns a job slot.
	Hold int `json:"hold" key:"hold" help:"test hook"`
}

var roughGate atomic.Pointer[roughStall]

type roughStall struct{ reached, release chan struct{} }

func (roughness) Op() string { return "roughness" }

// Validate also runs on a worker, against the request window, as it does on
// the coordinator.
func (p roughness) Validate(nch, nt int) error {
	if nch < 2 || p.Stride < 1 || p.Stride > nt {
		return fmt.Errorf("%w: roughness %+v on a %d×%d view", detect.ErrBadParams, p, nch, nt)
	}
	return nil
}

func (p roughness) Workload(int) arrayudf.Workload {
	return arrayudf.Workload{
		Spec: arrayudf.Spec{GhostChannels: 1, TimeStride: p.Stride},
		UDFScratch: func(s *arrayudf.Stencil, _ *daslib.Scratch) float64 {
			if g := roughGate.Load(); p.Hold == 1 && g != nil && s.Channel() == 0 && s.T() == 0 {
				close(g.reached)
				<-g.release
			}
			return math.Abs(s.Value() - (s.At(0, -1)+s.At(0, 1))/2)
		},
	}
}

func init() {
	detect.Register(detect.Op{
		Name:    roughness{}.Op(),
		Default: func(rate float64, _ int) detect.Params { return &roughness{Stride: max(int(rate/10), 1)} },
		Events:  detect.BandedEvents,
		Summary: func(detect.Params, *dasf.Array2D, int, float64) string { return "roughness map" },
	})
}

// TestRegisteredOpNeedsNoServerCode is "adding an op touches one file": the
// analysis above is answered by core.Run, by /detect in process and through
// two workers — distributed, with the same events — and by Coordinator.Run
// with the in-process map bit for bit, although serve, cluster, wire and core
// have never heard of it.
func TestRegisteredOpNeedsNoServerCode(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	cfg := genCfg(3)
	if _, err := dasgen.Generate(dir, cfg, dasgen.Fig10Events(cfg)); err != nil {
		t.Fatal(err)
	}
	pool := newClusterServer(t, dir, []string{startShardWorker(t), startShardWorker(t)})
	local := newClusterServer(t, dir, nil)
	ts := httptest.NewServer(pool.Handler())
	defer ts.Close()
	tsLocal := httptest.NewServer(local.Handler())
	defer tsLocal.Close()

	v, err := dass.ViewOver(local.Ingester().Catalog().Entries())
	if err != nil {
		t.Fatal(err)
	}
	p := &roughness{Stride: 4}
	want, _, err := core.New(core.Config{Nodes: 2, CoresPerNode: 2}).Run(v, p, "")
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	wantEvents := detect.BandedEvents(want, 1.2)
	if len(wantEvents) == 0 {
		t.Fatal("the fixture has no roughness events: the comparison below would be empty")
	}

	waitFor := time.Now().Add(5 * time.Second)
	for pool.Cluster().HealthyWorkers() < 2 {
		if time.Now().After(waitFor) {
			t.Fatal("workers never connected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	const q = "/detect?op=roughness&stride=4&threshold=1.2"
	var got, gotLocal clusterDetectResp
	if resp := getJSON(t, ts, q, &got); resp.StatusCode != 200 {
		t.Fatalf("cluster %s: %d", q, resp.StatusCode)
	}
	if resp := getJSON(t, tsLocal, q, &gotLocal); resp.StatusCode != 200 {
		t.Fatalf("local %s: %d", q, resp.StatusCode)
	}
	if !got.Distributed || gotLocal.Distributed || got.Op != p.Op() || gotLocal.Op != p.Op() {
		t.Fatalf("cluster answered %+v, local %+v", got, gotLocal)
	}
	if !reflect.DeepEqual(gotLocal.Events, wantEvents) || !reflect.DeepEqual(got.Events, wantEvents) {
		t.Fatalf("events diverge:\n core.Run %+v\n local    %+v\n cluster  %+v", wantEvents, gotLocal.Events, got.Events)
	}
	res, err := pool.Cluster().Run(context.Background(), cluster.Request{View: v, Params: p, Shards: 5})
	if err != nil {
		t.Fatalf("Coordinator.Run: %v", err)
	}
	if res.Data.Channels != want.Channels || res.Data.Samples != want.Samples {
		t.Fatalf("Coordinator.Run: %d×%d, core.Run %d×%d", res.Data.Channels, res.Data.Samples, want.Channels, want.Samples)
	}
	for i, g := range res.Data.Data {
		if math.Float64bits(g) != math.Float64bits(want.Data[i]) {
			t.Fatalf("Coordinator.Run: cell (%d,%d) = %v, core.Run %v", i/want.Samples, i%want.Samples, g, want.Data[i])
		}
	}
	// It is bounded like the built-in ones, by its own Validate.
	if resp := getJSON(t, ts, "/detect?op=roughness&stride=3000000000", nil); resp.StatusCode != 400 {
		t.Fatalf("hostile stride: status %d, want 400", resp.StatusCode)
	}
}

// TestDetectBoundsBeforeQueueing: /detect checks everything a request says —
// op, parameters, threshold, fit against the view — before it takes a job
// slot. With the one slot held by a detection that has stalled, malformed
// requests are told 400 at once instead of queueing behind it; the stalled
// job then completes.
func TestDetectBoundsBeforeQueueing(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	if _, err := dasgen.Generate(dir, genCfg(2), nil); err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{
		Ingest:     IngestConfig{Dir: dir, Poll: time.Hour},
		DetectJobs: 1, Nodes: 1, CoresPerNode: 2,
	})
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stall := &roughStall{reached: make(chan struct{}), release: make(chan struct{})}
	roughGate.Store(stall)
	defer roughGate.Store(nil)
	stalled := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/detect?op=roughness&hold=1")
		if err != nil {
			stalled <- 0
			return
		}
		resp.Body.Close()
		stalled <- resp.StatusCode
	}()
	select {
	case <-stall.reached:
	case <-time.After(10 * time.Second):
		t.Fatal("the stalled detection never started")
	}
	if len(s.jobs) != 1 {
		t.Fatalf("%d job slots held, want the only one", len(s.jobs))
	}

	client := &http.Client{Timeout: 5 * time.Second}
	for _, q := range append([]string{
		"/detect?op=nonsense",
		"/detect?op=interferometry",
		"/detect?threshold=high",
		"/detect?op=stalta&sta=soon",
		"/detect?op=localsimi&K=3000000000",
	}, hostileDetectQueries...) {
		resp, err := client.Get(ts.URL + q)
		if err != nil {
			t.Fatalf("%s waited for the job slot: %v", q, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	if len(s.jobs) != 1 {
		t.Fatal("the stalled detection lost its slot")
	}
	close(stall.release)
	select {
	case code := <-stalled:
		if code != 200 {
			t.Fatalf("the stalled detection finished with %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the stalled detection never finished")
	}
	if n := s.jobsDone.Load(); n != 1 {
		t.Fatalf("jobs done = %d, want 1: a refused request counted as a job", n)
	}
}

// TestWarmDetectTakesNoJobSlot: the job slot wraps a /detect's sub-runs, not
// the request. With the only slot held by a detection that has stalled, a
// window whose tiles are all stored is answered at once, and a cold one
// waits for the slot.
func TestWarmDetectTakesNoJobSlot(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	if _, err := dasgen.Generate(dir, genCfg(2), nil); err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{
		Ingest:     IngestConfig{Dir: dir, Poll: time.Hour},
		DetectJobs: 1, Nodes: 1, CoresPerNode: 2,
	})
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	get := func(q string) int {
		resp, err := client.Get(ts.URL + q)
		if err != nil {
			return -1
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	const warm = "/detect?op=localsimi"
	if code := get(warm); code != 200 {
		t.Fatalf("%s: status %d", warm, code)
	}

	stall := &roughStall{reached: make(chan struct{}), release: make(chan struct{})}
	roughGate.Store(stall)
	defer roughGate.Store(nil)
	release := sync.OnceFunc(func() { close(stall.release) })
	defer release() // before ts.Close, which waits for the stalled request
	stalled := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/detect?op=roughness&hold=1")
		if err != nil {
			stalled <- 0
			return
		}
		resp.Body.Close()
		stalled <- resp.StatusCode
	}()
	select {
	case <-stall.reached:
	case <-time.After(10 * time.Second):
		t.Fatal("the stalled detection never started")
	}

	if code := get(warm); code != 200 {
		t.Fatalf("warm %s with the only job slot held: status %d, want 200 at once", warm, code)
	}
	cold := make(chan int, 1)
	go func() { cold <- get("/detect?op=stalta") }()
	select {
	case code := <-cold:
		t.Fatalf("a cold /detect answered %d while the only job slot was held", code)
	case <-time.After(300 * time.Millisecond):
	}
	release()
	for name, ch := range map[string]chan int{"stalled": stalled, "cold": cold} {
		select {
		case code := <-ch:
			if code != 200 {
				t.Fatalf("the %s detection finished with %d", name, code)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("the %s detection never finished", name)
		}
	}
	if n := s.jobsDone.Load(); n != 4 {
		t.Fatalf("jobs done = %d, want 4: every 200 counts", n)
	}
}
