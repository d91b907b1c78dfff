package serve

import (
	"net"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"dassa/internal/cluster"
	"dassa/internal/dasgen"
	"dassa/internal/detect"
	"dassa/internal/testutil/leakcheck"
)

// startShardWorker serves a cluster worker on a loopback listener.
func startShardWorker(t *testing.T) string {
	addr, _ := serveShardWorker(t)
	return addr
}

// serveShardWorker is startShardWorker, also returning the worker.
func serveShardWorker(t *testing.T) (string, *cluster.Worker) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorker(cluster.WorkerConfig{
		Cores:          2,
		HeartbeatEvery: 100 * time.Millisecond,
	})
	// Cleanups run LIFO: Close severs the listener, then Wait joins the
	// serve goroutine.
	var wg sync.WaitGroup
	wg.Add(1)
	t.Cleanup(wg.Wait)
	t.Cleanup(w.Close)
	go func() {
		defer wg.Done()
		_ = w.Serve(ln)
	}()
	return ln.Addr().String(), w
}

// newClusterServer builds a daemon over dir fanning out to workers, with
// the catalog pre-scanned.
func newClusterServer(t *testing.T, dir string, workers []string) *Server {
	t.Helper()
	s := NewServer(Config{
		Ingest:       IngestConfig{Dir: dir, Poll: time.Hour},
		Nodes:        1,
		CoresPerNode: 2,
		Workers:      workers,
	})
	t.Cleanup(s.Close)
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	return s
}

type clusterDetectResp struct {
	Op          string          `json:"op"`
	Events      []detect.Region `json:"events"`
	Degraded    bool            `json:"degraded"`
	Distributed bool            `json:"distributed"`
	// Phases is nil when the body has no phases key.
	Phases map[string]string `json:"phases"`
}

type clusterReadResp struct {
	NumChannels int         `json:"num_channels"`
	NumSamples  int         `json:"num_samples"`
	Gaps        int         `json:"gaps"`
	Distributed bool        `json:"distributed"`
	Data        [][]float64 `json:"data"`
}

func TestHealthzReadyz(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	if _, err := dasgen.Generate(dir, genCfg(2), nil); err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Ingest: IngestConfig{Dir: dir, Poll: time.Hour}})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp := getJSON(t, ts, "/healthz", nil); resp.StatusCode != 200 {
		t.Fatalf("/healthz before scan: %d, want 200", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/readyz", nil); resp.StatusCode != 503 {
		t.Fatalf("/readyz before scan: %d, want 503", resp.StatusCode)
	}
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	if resp := getJSON(t, ts, "/readyz", nil); resp.StatusCode != 200 {
		t.Fatalf("/readyz after scan: %d, want 200", resp.StatusCode)
	}
}

func TestClusterDetectAndReadMatchLocal(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	if _, err := dasgen.Generate(dir, genCfg(3), nil); err != nil {
		t.Fatal(err)
	}
	workers := []string{startShardWorker(t), startShardWorker(t)}
	s := newClusterServer(t, dir, workers)
	local := newClusterServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tsLocal := httptest.NewServer(local.Handler())
	defer tsLocal.Close()

	// Readiness flips once a worker heartbeat lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp := getJSON(t, ts, "/readyz", nil); resp.StatusCode == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never turned 200 with live workers")
		}
		time.Sleep(20 * time.Millisecond)
	}

	for _, op := range []string{"localsimi", "stalta"} {
		var got, want clusterDetectResp
		if resp := getJSON(t, ts, "/detect?op="+op, &got); resp.StatusCode != 200 {
			t.Fatalf("cluster /detect?op=%s: %d", op, resp.StatusCode)
		}
		if resp := getJSON(t, tsLocal, "/detect?op="+op, &want); resp.StatusCode != 200 {
			t.Fatalf("local /detect?op=%s: %d", op, resp.StatusCode)
		}
		if !got.Distributed {
			t.Fatalf("op=%s did not run distributed", op)
		}
		if got.Degraded {
			t.Fatalf("op=%s degraded on a healthy cluster", op)
		}
		if !reflect.DeepEqual(got.Events, want.Events) {
			t.Fatalf("op=%s events diverge: cluster %+v local %+v", op, got.Events, want.Events)
		}
		// The local body reports the engine's phases; a distributed one has
		// no local engine run and so no phases key.
		if got.Phases != nil {
			t.Errorf("op=%s: distributed body carries phases %v", op, got.Phases)
		}
		if len(want.Phases) != 4 {
			t.Errorf("op=%s: local phases %v, want read/exchange/compute/write", op, want.Phases)
		}
		for k, s := range want.Phases {
			if _, err := time.ParseDuration(s); err != nil {
				t.Errorf("op=%s: local phase %s = %q: %v", op, k, s, err)
			}
		}
	}

	// The coordinator refuses what the local engine refuses, the same way.
	for _, q := range hostileDetectQueries {
		if resp := getJSON(t, ts, q, nil); resp.StatusCode != 400 {
			t.Errorf("cluster %s: status %d, want 400", q, resp.StatusCode)
		}
	}

	var got, want clusterReadResp
	if resp := getJSON(t, ts, "/read?ch0=1&ch1=7&t0=10&t1=90", &got); resp.StatusCode != 200 {
		t.Fatalf("cluster /read: %d", resp.StatusCode)
	}
	if resp := getJSON(t, tsLocal, "/read?ch0=1&ch1=7&t0=10&t1=90", &want); resp.StatusCode != 200 {
		t.Fatalf("local /read: %d", resp.StatusCode)
	}
	if !got.Distributed || want.Distributed {
		t.Fatalf("distributed flags wrong: cluster %v local %v", got.Distributed, want.Distributed)
	}
	if got.Gaps != 0 || !reflect.DeepEqual(got.Data, want.Data) {
		t.Fatalf("cluster read diverges from local (%d gaps)", got.Gaps)
	}
}

func TestClusterFallsBackWhenAllWorkersDead(t *testing.T) {
	leakcheck.Check(t)
	old := clusterDialTimeout
	clusterDialTimeout = 200 * time.Millisecond
	t.Cleanup(func() { clusterDialTimeout = old })

	dir := t.TempDir()
	if _, err := dasgen.Generate(dir, genCfg(2), nil); err != nil {
		t.Fatal(err)
	}
	// Port 1 refuses connections: workers configured, none will ever dial.
	s := newClusterServer(t, dir, []string{"127.0.0.1:1"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Catalog is scanned but no worker is healthy: not ready.
	if resp := getJSON(t, ts, "/readyz", nil); resp.StatusCode != 503 {
		t.Fatalf("/readyz with dead workers: %d, want 503", resp.StatusCode)
	}
	var got clusterDetectResp
	if resp := getJSON(t, ts, "/detect?op=stalta", &got); resp.StatusCode != 200 {
		t.Fatalf("/detect with dead workers: %d, want 200 via local fallback", resp.StatusCode)
	}
	if got.Distributed {
		t.Fatal("run claims distributed with no live worker")
	}
	var status struct {
		Cluster struct {
			Workers   int   `json:"workers"`
			Healthy   int   `json:"healthy"`
			Fallbacks int64 `json:"fallbacks"`
		} `json:"cluster"`
	}
	getJSON(t, ts, "/status", &status)
	if status.Cluster.Workers != 1 || status.Cluster.Healthy != 0 || status.Cluster.Fallbacks < 1 {
		t.Fatalf("status cluster block wrong: %+v", status.Cluster)
	}
}

// TestClusterFallsBackOncePerRequest: a /detect falls back to the local
// engine at most once. Over files 0–3 with files 1–2 already scored in
// process, it has two sub-runs there; on a dead cluster it waits out one
// dial timeout, not one per sub-run. One fallback is counted, and the map
// is a cold run's.
func TestClusterFallsBackOncePerRequest(t *testing.T) {
	leakcheck.Check(t)
	old := clusterDialTimeout
	clusterDialTimeout = 500 * time.Millisecond
	t.Cleanup(func() { clusterDialTimeout = old })

	dir := t.TempDir()
	tileRecord(t, dir, 8, 4, 5)
	s := newClusterServer(t, dir, []string{"127.0.0.1:1"})
	entries := s.Ingester().Catalog().Entries()
	p := strided(t, "localsimi", 50)
	if _, err := scoreOf(s, entries[1:3], p); err != nil {
		t.Fatal(err)
	}

	fallbacks := s.coFallback.Load()
	t0 := time.Now()
	got, err := scoreOf(s, entries, p)
	took := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if got.SubRuns != 2 {
		t.Fatalf("%d sub-runs over files 0–3, want 2", got.SubRuns)
	}
	if took >= 2*clusterDialTimeout {
		t.Errorf("two sub-runs on a dead cluster took %v: more than one %v dial timeout", took, clusterDialTimeout)
	}
	if n := s.coFallback.Load() - fallbacks; n != 1 || got.distributed {
		t.Errorf("%d fallbacks counted, distributed %v; want 1 and false", n, got.distributed)
	}
	if d := diffBits(got.out, cold(t, entries, p)); d != "" {
		t.Fatal(d)
	}
}
