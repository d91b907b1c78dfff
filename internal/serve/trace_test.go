package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dassa/internal/obs/trace"
	"dassa/internal/testutil/leakcheck"
)

// TestTraceMiddleware drives a traced request end to end through the
// daemon: the response echoes an X-Dassa-Trace id, /debug/traces lists the
// trace, and /debug/traces/{id} returns the full span tree with the
// handler's child spans attached under the HTTP root.
func TestTraceMiddleware(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	for _, p := range stageFiles(t, 2) {
		arrive(t, dir, p)
	}
	s := newTestServer(t, dir)
	if err := s.Ingester().ScanOnce(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// An inbound X-Dassa-Trace id must be adopted and echoed, so callers
	// can stitch the daemon's trace into their own.
	const inbound = "feedc0de00000000000000000000cafe"
	req, err := http.NewRequest("GET", ts.URL+"/read?data=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.Header, inbound)
	hresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if got := hresp.Header.Get(trace.Header); got != inbound {
		t.Fatalf("trace header not echoed: got %q want %q", got, inbound)
	}

	// A request without the header gets a freshly minted id.
	resp := getJSON(t, ts, "/read?data=0", nil)
	minted := resp.Header.Get(trace.Header)
	if _, ok := trace.ParseID(minted); !ok {
		t.Fatalf("minted trace id %q does not parse", minted)
	}
	if minted == inbound {
		t.Fatal("second request reused the first request's trace id")
	}

	// The index lists both traces.
	var index struct {
		Stats  trace.StoreStats `json:"stats"`
		Recent []trace.Summary  `json:"recent"`
	}
	getJSON(t, ts, "/debug/traces", &index)
	if index.Stats.Added < 2 {
		t.Fatalf("trace store recorded %d traces, want >= 2", index.Stats.Added)
	}
	found := false
	for _, sum := range index.Recent {
		if sum.TraceID == trace.ID(inbound) {
			found = true
		}
	}
	if !found {
		t.Fatalf("inbound trace %s not in /debug/traces recent list: %+v", inbound, index.Recent)
	}

	// The detail view holds the whole tree: HTTP root plus the storage
	// layer's dass.read child, with the root carrying build info.
	var td trace.TraceData
	getJSON(t, ts, "/debug/traces/"+inbound, &td)
	if td.Root != "http /read" {
		t.Fatalf("root span = %q, want %q", td.Root, "http /read")
	}
	names := map[string]bool{}
	for _, sp := range td.Spans {
		names[sp.Name] = true
	}
	if !names["dass.read"] {
		t.Fatalf("trace %s has no dass.read span: %v", inbound, names)
	}
	if orphans := td.Orphans(); len(orphans) != 0 {
		t.Fatalf("trace has %d orphan spans: %v", len(orphans), orphans)
	}
	if td.UnendedSpans != 0 {
		t.Fatalf("trace has %d spans still open when its root ended", td.UnendedSpans)
	}
	rootAttrs := map[string]string{}
	for _, sp := range td.Spans {
		if sp.Name == "http /read" {
			for _, a := range sp.Attrs {
				rootAttrs[a.K] = a.V
			}
		}
	}
	for _, k := range []string{"route", "build_version", "build_commit", "uptime_seconds"} {
		if _, ok := rootAttrs[k]; !ok {
			t.Errorf("root span missing attr %q (have %v)", k, rootAttrs)
		}
	}

	// A cold /detect run nests the score planner, the compute facade and the
	// engine phases; a warm repeat of it is served from the score store.
	detectSpans := func() map[string]map[string]string {
		t.Helper()
		dresp := getJSON(t, ts, "/detect?op=stalta", nil)
		var dtd trace.TraceData
		getJSON(t, ts, "/debug/traces/"+dresp.Header.Get(trace.Header), &dtd)
		spans := map[string]map[string]string{}
		for _, sp := range dtd.Spans {
			attrs := map[string]string{}
			for _, a := range sp.Attrs {
				attrs[a.K] = a.V
			}
			spans[sp.Name] = attrs
		}
		return spans
	}
	cold := detectSpans()
	for _, want := range []string{"http /detect", "serve.scores", "core.stalta", "haee.read", "haee.compute"} {
		if cold[want] == nil {
			t.Errorf("cold detect trace missing span %q (have %v)", want, cold)
		}
	}
	warm := detectSpans()
	if sc := warm["serve.scores"]; sc == nil || sc["sub_runs"] != "0" || sc["cells_computed"] != "0" || sc["tiles_hit"] != sc["tiles"] {
		t.Errorf("warm detect: serve.scores %v, want every tile hit and no sub-run", sc)
	}
	if sc := cold["serve.scores"]; sc["sub_runs"] != "1" || sc["tiles_hit"] != "0" {
		t.Errorf("cold detect: serve.scores %v, want one sub-run and no tile hit", sc)
	}

	// A /read with its samples times the body under serve.read_encode, a
	// child of the root that counts the bytes sent, the rows and the team.
	rresp, err := ts.Client().Get(ts.URL + "/read?ch0=1&ch1=6")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var rtd trace.TraceData
	getJSON(t, ts, "/debug/traces/"+rresp.Header.Get(trace.Header), &rtd)
	var root, enc *trace.SpanData
	for i, sp := range rtd.Spans {
		switch sp.Name {
		case "http /read":
			root = &rtd.Spans[i]
		case "serve.read_encode":
			enc = &rtd.Spans[i]
		}
	}
	if root == nil || enc == nil || enc.Parent != root.SpanID {
		t.Fatalf("read trace: root %v, serve.read_encode %v, want the span under the root", root, enc)
	}
	attrs := map[string]string{}
	for _, a := range enc.Attrs {
		attrs[a.K] = a.V
	}
	want := map[string]string{"bytes": strconv.Itoa(len(body)), "rows": "5", "threads": "2"}
	if !reflect.DeepEqual(attrs, want) {
		t.Errorf("serve.read_encode attrs %v, want %v", attrs, want)
	}
}

// TestTraceEndpointErrors covers the two failure shapes of the detail
// endpoint: a malformed id is a 400, a well-formed but unknown id a 404.
func TestTraceEndpointErrors(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := getJSON(t, ts, "/debug/traces/not!hex", nil)
	if resp.StatusCode != 400 {
		t.Fatalf("malformed id: status %d, want 400", resp.StatusCode)
	}
	resp = getJSON(t, ts, "/debug/traces/"+strings.Repeat("ab", 16), nil)
	if resp.StatusCode != 404 {
		t.Fatalf("unknown id: status %d, want 404", resp.StatusCode)
	}
}

// TestStatusBuildInfo checks /status carries uptime and linker-stamped
// build identity — the same fields every trace's root span is stamped with.
func TestStatusBuildInfo(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var body struct {
		UptimeSeconds *int64 `json:"uptime_seconds"`
		Build         struct {
			Version string `json:"version"`
			Commit  string `json:"commit"`
		} `json:"build"`
	}
	getJSON(t, ts, "/status", &body)
	if body.UptimeSeconds == nil {
		t.Fatal("/status has no uptime_seconds")
	}
	if body.Build.Version == "" || body.Build.Commit == "" {
		t.Fatalf("/status build info empty: %+v", body.Build)
	}
}
