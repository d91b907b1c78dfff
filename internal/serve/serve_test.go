package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/detect"
	"dassa/internal/testutil/leakcheck"
)

func genCfg(files int) dasgen.Config {
	return dasgen.Config{
		Channels: 8, SampleRate: 50, FileSeconds: 1, NumFiles: files,
		Seed: 11, DType: dasf.Float64,
	}
}

// stageFiles generates `total` minute files in a staging dir and returns
// their paths in time order — the test drip-feeds them into the watch dir.
func stageFiles(t *testing.T, total int) []string {
	t.Helper()
	stage := t.TempDir()
	paths, err := dasgen.Generate(stage, genCfg(total), nil)
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// arrive copies src into dir the way a recorder delivers a minute file:
// write to a temp name, then rename into place.
func arrive(t *testing.T, dir, src string) string {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, filepath.Base(src))
	tmp := dst + ".part"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, dst); err != nil {
		t.Fatal(err)
	}
	return dst
}

func newTestServer(t *testing.T, dir string) *Server {
	t.Helper()
	return NewServer(Config{
		Ingest:       IngestConfig{Dir: dir, Poll: 50 * time.Millisecond, LiveVCA: true},
		Nodes:        1,
		CoresPerNode: 2,
	})
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp
}

func TestIngestSearchAndLiveVCA(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	staged := stageFiles(t, 6)
	for _, p := range staged[:4] {
		arrive(t, dir, p)
	}

	s := newTestServer(t, dir)
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var sr struct {
		TotalFiles int `json:"total_files"`
		Matches    int `json:"matches"`
		Files      []fileJSON
	}
	if resp := getJSON(t, ts, "/search", &sr); resp.StatusCode != 200 {
		t.Fatalf("/search status %d", resp.StatusCode)
	}
	if sr.TotalFiles != 4 || sr.Matches != 4 {
		t.Fatalf("search over 4 files: %+v", sr)
	}

	// A new minute arrives; the next poll makes it searchable.
	arrive(t, dir, staged[4])
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts, "/search", &sr)
	if sr.TotalFiles != 5 {
		t.Fatalf("after arrival: %d files, want 5", sr.TotalFiles)
	}

	// The live VCA covers the series and was extended, not rebuilt.
	vca := filepath.Join(dir, LiveVCAName)
	info, _, err := dasf.ReadInfo(vca)
	if err != nil {
		t.Fatalf("live VCA: %v", err)
	}
	if len(info.Members) != 5 {
		t.Fatalf("live VCA has %d members, want 5", len(info.Members))
	}
	if st := s.Ingester().Stats(); st.VCAAppends < 2 || st.FilesIngested != 5 {
		t.Fatalf("ingest stats %+v", st)
	}

	// A corrupt half-copied file is skipped and visible in /status, and
	// never kills the scan.
	if err := os.WriteFile(filepath.Join(dir, "junk_270620100000.dasf"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	var status struct {
		Catalog  map[string]any `json:"catalog"`
		Ingest   IngestStats    `json:"ingest"`
		BadFiles []string       `json:"bad_files"`
	}
	getJSON(t, ts, "/status", &status)
	if status.Ingest.BadFiles != 1 || len(status.BadFiles) != 1 {
		t.Fatalf("bad file not reported: %+v", status)
	}
	if status.Catalog["files"].(float64) != 5 {
		t.Fatalf("catalog %+v", status.Catalog)
	}
}

func TestReadThroughCache(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	for _, p := range stageFiles(t, 3) {
		arrive(t, dir, p)
	}
	s := newTestServer(t, dir)
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type readResp struct {
		NumChannels int              `json:"num_channels"`
		NumSamples  int              `json:"num_samples"`
		IO          map[string]int64 `json:"io"`
		Data        [][]float64      `json:"data"`
		Gaps        int              `json:"gaps"`
	}
	var r1, r2 readResp
	url := "/read?ch0=2&ch1=6&t0=10&t1=120"
	if resp := getJSON(t, ts, url, &r1); resp.StatusCode != 200 {
		t.Fatalf("/read status %d", resp.StatusCode)
	}
	if r1.NumChannels != 4 || r1.NumSamples != 110 || len(r1.Data) != 4 {
		t.Fatalf("read shape: %+v", r1)
	}
	if r1.IO["opens"] == 0 {
		t.Fatal("first read should hit disk")
	}
	getJSON(t, ts, url, &r2)
	if r2.IO["opens"] != 0 {
		t.Fatalf("second read did %d opens, want 0 (cache)", r2.IO["opens"])
	}
	var status struct {
		Cache CacheStats `json:"cache"`
	}
	getJSON(t, ts, "/status", &status)
	if status.Cache.Hits == 0 || status.Cache.Misses == 0 {
		t.Fatalf("cache counters: %+v", status.Cache)
	}

	// Same values both times.
	for c := range r1.Data {
		for i := range r1.Data[c] {
			if r1.Data[c][i] != r2.Data[c][i] {
				t.Fatalf("cached read differs at [%d][%d]", c, i)
			}
		}
	}
}

// TestRewriteInPlaceInvalidates: a file rewritten in place with the same
// header and other samples is a change. The index re-parses it because its
// size or mtime moved, and the ingester must see the same stamp move: after
// the next scan /read serves the new samples, not the cached block, and
// files_changed counts the rewrite.
func TestRewriteInPlaceInvalidates(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	staged := stageFiles(t, 2)
	for _, p := range staged {
		arrive(t, dir, p)
	}
	cfg := genCfg(2)
	cfg.Seed++
	alt, err := dasgen.Generate(t.TempDir(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, dir)
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type readResp struct {
		Data [][]float64 `json:"data"`
	}
	var before, after readResp
	getJSON(t, ts, "/read", &before)
	rewriteInPlace(t, filepath.Join(dir, filepath.Base(staged[0])), alt[0])
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts, "/read", &after)

	r, err := dasf.Open(alt[0])
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want, err := r.ReadSlab(0, 8, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	for c := range after.Data {
		if !slices.Equal(after.Data[c][:50], want.Row(c)) {
			t.Fatalf("channel %d: /read after the rewrite serves %v…, the file holds %v…", c, after.Data[c][:3], want.Row(c)[:3])
		}
		if !slices.Equal(after.Data[c][50:], before.Data[c][50:]) {
			t.Fatalf("channel %d: the file not rewritten changed", c)
		}
	}
	var status struct {
		Ingest IngestStats `json:"ingest"`
	}
	getJSON(t, ts, "/status", &status)
	if status.Ingest.FilesChanged != 1 {
		t.Fatalf("files_changed = %d, want 1", status.Ingest.FilesChanged)
	}
}

func TestDetectEndpoints(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	for _, p := range stageFiles(t, 3) {
		arrive(t, dir, p)
	}
	s := newTestServer(t, dir)
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var dr struct {
		Op     string          `json:"op"`
		Events []detect.Region `json:"events"`
		WallMS float64         `json:"wall_ms"`
	}
	if resp := getJSON(t, ts, "/detect?op=stalta&sta=3&lta=25", &dr); resp.StatusCode != 200 {
		t.Fatalf("/detect stalta status %d", resp.StatusCode)
	}
	if dr.Op != "stalta" {
		t.Fatalf("detect response %+v", dr)
	}
	if resp := getJSON(t, ts, "/detect?op=localsimi&M=6&stride=5", &dr); resp.StatusCode != 200 {
		t.Fatalf("/detect localsimi status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/detect?op=nope", nil); resp.StatusCode != 400 {
		t.Fatalf("unknown op: status %d, want 400", resp.StatusCode)
	}
	// The key list has one definition: what das_analyze takes as a flag,
	// /detect takes as a parameter, bounded by the same Validate. An analysis
	// without an event stage is not a detection.
	for q, want := range map[string]int{
		"/detect?op=localsimi&K=2&L=3":   200,
		"/detect?op=stalta&stride=5":     200,
		"/detect?op=localsimi&K=8":       400,
		"/detect?op=localsimi&L=seven":   400,
		"/detect?op=interferometry":      400,
		"/detect?op=stacked&window=64":   400,
		"/detect?threshold=1.5e":         400,
		"/detect?op=stalta&threshold=-1": 200,
	} {
		if resp := getJSON(t, ts, q, nil); resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", q, resp.StatusCode, want)
		}
	}
	// Detector parameters are bounded against the window before they size
	// anything: M = 3e9 used to reach the first edge cell's buffer and end
	// the daemon with an out-of-memory throw. Each is the client's error,
	// and the daemon answers the next request.
	for _, q := range hostileDetectQueries {
		var e struct {
			Error string `json:"error"`
		}
		if resp := getJSON(t, ts, q, &e); resp.StatusCode != 400 || !strings.Contains(e.Error, "bad parameters") {
			t.Errorf("%s: status %d %q, want 400 naming the parameters", q, resp.StatusCode, e.Error)
		}
	}
	if resp := getJSON(t, ts, "/detect?op=stalta&sta=3&lta=25", &dr); resp.StatusCode != 200 {
		t.Fatalf("/detect after the refused ones: status %d", resp.StatusCode)
	}
}

// hostileDetectQueries size a borrow or an output extent past the window.
var hostileDetectQueries = []string{
	"/detect?op=localsimi&M=3000000000",
	"/detect?op=localsimi&stride=3000000000",
	"/detect?op=stalta&lta=3000000000",
	"/detect?op=stalta&sta=3000000000&lta=3000000001",
}

func TestStatusFileDetail(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	staged := stageFiles(t, 2)
	for _, p := range staged {
		arrive(t, dir, p)
	}
	s := newTestServer(t, dir)
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var info dasf.InfoJSON
	if resp := getJSON(t, ts, "/status?file="+filepath.Base(staged[0]), &info); resp.StatusCode != 200 {
		t.Fatalf("file detail status %d", resp.StatusCode)
	}
	if info.Kind != "data" || info.NumChannels != 8 {
		t.Fatalf("file detail %+v", info)
	}
	// Path traversal is confined to the watched dir.
	if resp := getJSON(t, ts, "/status?file=../../etc/passwd", nil); resp.StatusCode != 404 {
		t.Fatalf("traversal status %d, want 404", resp.StatusCode)
	}
}

// TestAdmissionControl drives the gate directly with a blocking handler:
// 1 slot, 1 queue spot — the third concurrent request must shed with 429
// and Retry-After, and the queued one must complete once the slot frees.
func TestAdmissionControl(t *testing.T) {
	leakcheck.Check(t)
	s := NewServer(Config{
		Ingest:        IngestConfig{Dir: t.TempDir()},
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueWait:     5 * time.Second,
	})
	holding := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	h := s.admit(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(holding); <-release })
		w.WriteHeader(200)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	codes := make(chan int, 2)
	go func() {
		resp, err := ts.Client().Get(ts.URL)
		if err == nil {
			codes <- resp.StatusCode
			resp.Body.Close()
		}
	}()
	<-holding // request 1 now owns the only slot

	go func() {
		resp, err := ts.Client().Get(ts.URL)
		if err == nil {
			codes <- resp.StatusCode
			resp.Body.Close()
		}
	}()
	// Wait until request 2 occupies the queue spot.
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.queued.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.adm.queued.Load() == 0 {
		t.Fatal("second request never queued")
	}

	// Request 3: slot busy, queue full → immediate 429.
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	for i := 0; i < 2; i++ {
		select {
		case code := <-codes:
			if code != 200 {
				t.Fatalf("request finished with %d", code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("requests did not complete after release")
		}
	}
	st := s.adm.stats()
	if st.Admitted != 2 || st.Rejected != 1 {
		t.Fatalf("admission stats %+v", st)
	}
}
