package clitest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startDaemon launches one of the daemons (dassw/dassd) and returns the
// running command, the address it printed on stdout, and the file its
// stderr (the structured log) is captured into — tests grep it for
// trace_id correlation. Stdout keeps draining in the background so the
// process never blocks on the pipe.
func startDaemon(t *testing.T, name string, args ...string) (*exec.Cmd, string, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), name), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	logFile, err := os.CreateTemp(t.TempDir(), name+"-*.log")
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = logFile.Close()
	})

	var addr string
	sc := bufio.NewScanner(stdout)
	re := regexp.MustCompile(`listening on (\S+)`)
	for sc.Scan() {
		if m := re.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		t.Fatalf("%s never reported its address", name)
	}
	//dassalint:ignore goleak drain ends at pipe EOF when the daemon process exits
	go func() {
		for sc.Scan() {
		}
	}()
	return cmd, addr, logFile.Name()
}

// terminate sends SIGTERM and requires a clean exit within the deadline.
func terminate(t *testing.T, name string, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s exited uncleanly after SIGTERM: %v", name, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not exit within 10s of SIGTERM", name)
	}
}

// TestClusterDaemons is the multi-process smoke test of the distributed
// subsystem: two dassw shard workers plus a dassd coordinator, a
// distributed /detect, one worker SIGKILLed while detect traffic is in
// flight (the cluster must answer every request — re-dispatched or
// NaN-degraded, never an error), and clean drains for the survivors.
func TestClusterDaemons(t *testing.T) {
	watch := t.TempDir()
	run(t, "das_gen", "-dir", watch, "-channels", "48", "-rate", "100",
		"-seconds", "2", "-files", "4", "-events", "fig10")

	// The victim's storage reads are slowed so detect shards are reliably
	// still in flight on it when the kill lands mid-hammer.
	w1, a1, _ := startDaemon(t, "dassw", "-addr", "127.0.0.1:0", "-name", "victim",
		"-inject", "seed=3,slowp=1,slowlat=60ms")
	w2, a2, w2log := startDaemon(t, "dassw", "-addr", "127.0.0.1:0", "-name", "survivor")
	dd, daddr, ddlog := startDaemon(t, "dassd",
		"-dir", watch, "-addr", "127.0.0.1:0", "-poll", "1s",
		"-workers", a1+","+a2)
	base := "http://" + daddr

	get := func(path string, out any) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("GET %s: decode: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	// Readiness requires the catalog scan AND a live worker heartbeat.
	deadline := time.Now().Add(10 * time.Second)
	for get("/readyz", nil) != 200 {
		if time.Now().After(deadline) {
			t.Fatal("/readyz never turned 200 with two live workers")
		}
		time.Sleep(100 * time.Millisecond)
	}

	type detectResp struct {
		Op          string `json:"op"`
		Distributed bool   `json:"distributed"`
		Degraded    bool   `json:"degraded"`
	}
	// traceDoc mirrors the /debug/traces/{id} payload closely enough to
	// walk the span tree.
	type traceDoc struct {
		TraceID      string `json:"trace_id"`
		Root         string `json:"root"`
		UnendedSpans int    `json:"unended_spans"`
		Spans        []struct {
			SpanID  string `json:"span_id"`
			Parent  string `json:"parent"`
			Name    string `json:"name"`
			Process string `json:"process"`
			Status  string `json:"status"`
			Attrs   []struct {
				K string `json:"k"`
				V string `json:"v"`
			} `json:"attrs"`
		} `json:"spans"`
	}
	getTrace := func(id string) (traceDoc, int) {
		var td traceDoc
		resp, err := http.Get(base + "/debug/traces/" + id)
		if err != nil {
			t.Fatalf("GET /debug/traces/%s: %v", id, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == 200 {
			if err := json.NewDecoder(resp.Body).Decode(&td); err != nil {
				t.Fatalf("trace %s: decode: %v", id, err)
			}
		}
		return td, resp.StatusCode
	}

	var dr detectResp
	resp, err := http.Get(base + "/detect?op=localsimi")
	if err != nil {
		t.Fatal(err)
	}
	healthyID := resp.Header.Get("X-Dassa-Trace")
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || !dr.Distributed || dr.Degraded {
		t.Fatalf("healthy distributed detect: code %d, %+v", resp.StatusCode, dr)
	}

	// The healthy detect must be retrievable as ONE reassembled trace with
	// coordinator dispatch spans and worker-side shard spans from both
	// worker processes.
	if healthyID == "" {
		t.Fatal("detect response carries no X-Dassa-Trace header")
	}
	td, code := getTrace(healthyID)
	if code != 200 {
		t.Fatalf("/debug/traces/%s: code %d", healthyID, code)
	}
	if td.Root != "http /detect" {
		t.Fatalf("trace root %q, want \"http /detect\"", td.Root)
	}
	if td.UnendedSpans != 0 {
		t.Fatalf("trace %s has %d spans still open when its root ended", healthyID, td.UnendedSpans)
	}
	procs := map[string]bool{}
	var dispatches int
	for _, sp := range td.Spans {
		if sp.Name == "worker.shard" {
			procs[sp.Process] = true
			// Each worker assembled its shard from its score store.
			tiles := false
			for _, a := range sp.Attrs {
				tiles = tiles || a.K == "tiles_hit"
			}
			if !tiles {
				t.Errorf("worker.shard span on %s has no tiles_hit attribute", sp.Process)
			}
		}
		if sp.Name == "cluster.dispatch" {
			dispatches++
		}
	}
	if dispatches == 0 {
		t.Fatal("healthy detect trace has no cluster.dispatch spans")
	}
	if !procs["victim"] || !procs["survivor"] {
		t.Fatalf("healthy detect trace missing worker-side spans: have processes %v", procs)
	}
	// /detect's map is made under serve.scores, on the workers here:
	// cluster.run sits under it in the span tree.
	byID := map[string]int{}
	for i, sp := range td.Spans {
		byID[sp.SpanID] = i
	}
	underScores := func(i int) bool {
		for j, ok := byID[td.Spans[i].Parent]; ok; j, ok = byID[td.Spans[j].Parent] {
			if td.Spans[j].Name == "serve.scores" {
				return true
			}
		}
		return false
	}
	runs := 0
	for i, sp := range td.Spans {
		if sp.Name == "cluster.run" {
			runs++
			if !underScores(i) {
				t.Errorf("cluster.run span %s is not a descendant of serve.scores", sp.SpanID)
			}
		}
	}
	if runs == 0 {
		t.Error("healthy detect trace has no cluster.run span")
	}

	// The same trace id must correlate the dassd access log with the
	// worker's shard log — grep both stderr captures.
	grepLog := func(path, want string) bool {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Contains(string(raw), want)
	}
	if !grepLog(ddlog, healthyID) {
		t.Errorf("trace id %s not in dassd log %s", healthyID, ddlog)
	}
	if !grepLog(w2log, healthyID) {
		t.Errorf("trace id %s not in dassw (survivor) log %s", healthyID, w2log)
	}

	// Hammer /detect while one worker dies mid-stream. Every response
	// must be a 200: a lost shard is either re-dispatched to the healthy
	// worker or NaN-degraded into the quality report, never an error. Each
	// request asks for another K, so no worker answers it from the score
	// tiles the requests before it stored: every one computes, and the kill
	// lands while shards are in flight.
	type hammered struct {
		code    int
		traceID string
	}
	codes := make(chan hammered, 8)
	go func() {
		for i := 0; i < 8; i++ {
			resp, err := http.Get(fmt.Sprintf("%s/detect?op=localsimi&K=%d", base, 2+i))
			if err != nil {
				codes <- hammered{code: -1}
				continue
			}
			_ = resp.Body.Close()
			codes <- hammered{resp.StatusCode, resp.Header.Get("X-Dassa-Trace")}
		}
	}()
	time.Sleep(150 * time.Millisecond)
	if err := w1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = w1.Process.Wait()
	var hammerIDs []string
	for i := 0; i < 8; i++ {
		h := <-codes
		if h.code != 200 {
			t.Fatalf("detect #%d during worker death: code %d, want 200", i, h.code)
		}
		hammerIDs = append(hammerIDs, h.traceID)
	}

	// Scrape the traces of the hammered requests: at least one must tell
	// the worker-death story — a dispatch that failed, then either a
	// redispatch-marked retry or a NaN-degrade decision, all in one trace.
	var sawFailure, sawRecovery bool
	for _, id := range hammerIDs {
		td, code := getTrace(id)
		if code != 200 {
			continue // evicted under churn; the others cover it
		}
		for _, sp := range td.Spans {
			if sp.Name == "cluster.dispatch" && sp.Status != "" && sp.Status != "ok" {
				sawFailure = true
			}
			attrs := map[string]string{}
			for _, a := range sp.Attrs {
				attrs[a.K] = a.V
			}
			if sp.Name == "cluster.dispatch" && attrs["redispatch"] == "true" {
				sawRecovery = true
			}
			if sp.Name == "cluster.degrade" {
				sawRecovery = true
			}
		}
	}
	if !sawFailure || !sawRecovery {
		t.Errorf("worker-death traces show failure=%v recovery=%v; "+
			"want a failed dispatch plus a redispatch or degrade span", sawFailure, sawRecovery)
	}

	// With one worker down the cluster stays ready and distributed.
	if code := get("/readyz", nil); code != 200 {
		t.Fatalf("/readyz after worker death: %d, want 200", code)
	}
	dr = detectResp{}
	if code := get("/detect?op=stalta", &dr); code != 200 || !dr.Distributed {
		t.Fatalf("post-death distributed detect: code %d, %+v", code, dr)
	}

	// das_analyze -workers drives the same pool directly.
	files, err := filepath.Glob(filepath.Join(watch, "*.dasf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no generated files: %v %v", files, err)
	}
	out := run(t, "das_analyze", "-in", files[0], "-op", "stalta", "-workers", a2, "-trace")
	if !strings.Contains(out, "cluster: 1 worker(s)") || !strings.Contains(out, "STA/LTA map") {
		t.Fatalf("das_analyze -workers output:\n%s", out)
	}
	// -trace prints the reassembled span tree, worker-side spans included.
	for _, want := range []string{"trace ", "cluster.dispatch", "worker.shard", "@survivor"} {
		if !strings.Contains(out, want) {
			t.Errorf("das_analyze -trace output missing %q:\n%s", want, out)
		}
	}

	// Survivors drain cleanly on SIGTERM.
	terminate(t, "dassd", dd)
	terminate(t, "dassw", w2)
}
