package serve

import (
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"dassa/internal/dass"
	"dassa/internal/obs"
	"dassa/internal/obs/trace"
)

// QualityStats aggregates data-loss accounting over the daemon's life:
// how many reads came back degraded, what they masked, and what the retry
// layer spent keeping the rest clean. Surfaced in /status ("quality") and
// as dassa_degraded_* counters on /metrics.
type QualityStats struct {
	DegradedReads int64 `json:"degraded_reads"` // reads that returned ≥1 gap
	Gaps          int64 `json:"gaps"`           // NaN-masked rectangles served
	MaskedSamples int64 `json:"masked_samples"` // cells masked with NaN
	LostFiles     int64 `json:"lost_files"`     // member files that stayed bad
	Retries       int64 `json:"retries"`        // storage retries spent
}

// qualityCounters is the atomic store behind QualityStats.
type qualityCounters struct {
	degraded, gaps, masked, lost, retries atomic.Int64
}

func (q *qualityCounters) stats() QualityStats {
	return QualityStats{
		DegradedReads: q.degraded.Load(),
		Gaps:          q.gaps.Load(),
		MaskedSamples: q.masked.Load(),
		LostFiles:     q.lost.Load(),
		Retries:       q.retries.Load(),
	}
}

// recordReport folds one engine run's QualityReport in (nil = clean).
func (q *qualityCounters) recordReport(rep *dass.QualityReport) {
	if rep == nil {
		return
	}
	q.retries.Add(rep.Retries)
	if !rep.Degraded() {
		return
	}
	q.degraded.Add(1)
	q.gaps.Add(int64(len(rep.Gaps)))
	q.masked.Add(rep.LostSamples)
	q.lost.Add(int64(len(rep.LostFiles)))
}

// registerMetrics wires the server's components into its registry. The
// cache, ingester, and admission gate already keep their own atomics, so
// they are exposed func-backed — a scrape reads the live values; nothing
// is double-counted. Registration is idempotent and re-registration
// rebinds the funcs, so repeated NewServer calls (tests) are safe.
func (s *Server) registerMetrics() {
	reg := s.reg

	s.httpReqs = map[string]*obs.Counter{}
	s.httpLat = map[string]*obs.Histogram{}
	for _, rt := range []string{"/search", "/read", "/detect", "/status"} {
		s.httpReqs[rt] = reg.Counter("dassa_http_requests_total",
			"HTTP requests served, by route", obs.L("route", rt))
		s.httpLat[rt] = reg.Histogram("dassa_http_request_seconds",
			"HTTP request latency in seconds, by route", obs.LatencyBuckets(), obs.L("route", rt))
	}

	// Admission gate: sheds are the 429s the bounded queue hands out.
	reg.CounterFunc("dassa_http_sheds_total",
		"requests shed with 429 by admission control",
		func() float64 { return float64(s.adm.rejected.Load()) })
	reg.CounterFunc("dassa_http_admitted_total",
		"requests admitted past the gate",
		func() float64 { return float64(s.adm.admitted.Load()) })
	reg.GaugeFunc("dassa_http_inflight",
		"admitted queries executing right now",
		func() float64 { return float64(s.adm.inFlight.Load()) })
	reg.GaugeFunc("dassa_http_queue_depth",
		"queries waiting for an execution slot",
		func() float64 { return float64(len(s.adm.queue)) })

	// Member file cache.
	reg.CounterFunc("dassa_cache_hits_total", "member file cache hits",
		func() float64 { return float64(s.cache.hits.Load()) })
	reg.CounterFunc("dassa_cache_misses_total", "member file cache misses (loader runs)",
		func() float64 { return float64(s.cache.misses.Load()) })
	reg.CounterFunc("dassa_cache_coalesced_total",
		"waiters that piggybacked on an in-flight load",
		func() float64 { return float64(s.cache.coalesced.Load()) })
	reg.CounterFunc("dassa_cache_evictions_total", "member files evicted by the LRU",
		func() float64 { return float64(s.cache.evictions.Load()) })
	reg.GaugeFunc("dassa_cache_bytes", "resident cached member file bytes",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	reg.GaugeFunc("dassa_cache_entries", "member files resident in the cache",
		func() float64 { return float64(s.cache.Stats().Entries) })

	// Score store: tiles served from it or computed, and the cells the
	// in-process sub-runs computed.
	reg.CounterFunc("dassa_score_tiles_total", "score tiles looked up in the store, by result",
		func() float64 { return float64(s.tiles.Stats().Hits) }, obs.L("result", "hit"))
	reg.CounterFunc("dassa_score_tiles_total", "score tiles looked up in the store, by result",
		func() float64 { return float64(s.tiles.Stats().Misses) }, obs.L("result", "miss"))
	s.cellsComputed = reg.Counter("dassa_score_cells_computed_total",
		"detector cells computed by in-process /detect sub-runs")

	// Ingest loop.
	reg.CounterFunc("dassa_ingest_scans_total", "ingest poll cycles completed",
		func() float64 { return float64(s.ing.Stats().Scans) })
	reg.CounterFunc("dassa_ingest_files_total",
		"new files ingested over the daemon's life",
		func() float64 { return float64(s.ing.Stats().FilesIngested) })
	reg.GaugeFunc("dassa_ingest_lag_seconds",
		"newest ingested file's mtime-to-catalog latency (-0.001 until first ingest)",
		func() float64 { return float64(s.ing.Stats().LagMS) / 1000 })
	reg.GaugeFunc("dassa_catalog_files", "files in the served catalog",
		func() float64 { return float64(s.ing.Stats().FilesTotal) })

	// Degraded-read quality accounting.
	reg.CounterFunc("dassa_degraded_reads_total",
		"reads served with at least one NaN-masked gap",
		func() float64 { return float64(s.quality.degraded.Load()) })
	reg.CounterFunc("dassa_read_gaps_total", "NaN-masked gap rectangles served",
		func() float64 { return float64(s.quality.gaps.Load()) })
	reg.CounterFunc("dassa_masked_samples_total", "samples masked with NaN",
		func() float64 { return float64(s.quality.masked.Load()) })
	reg.CounterFunc("dassa_lost_files_total",
		"member files that stayed bad after retries",
		func() float64 { return float64(s.quality.lost.Load()) })
	reg.CounterFunc("dassa_read_retries_total",
		"storage retries spent by request reads",
		func() float64 { return float64(s.quality.retries.Load()) })

	// Cancellation, panic recovery, and quarantine.
	reg.CounterFunc("dassa_requests_cancelled_total",
		"requests aborted by client disconnect (499) or deadline (504)",
		func() float64 { return float64(s.cancelled.Load()) })
	reg.CounterFunc("dassa_panics_total",
		"handler panics recovered into 500s",
		func() float64 { return float64(s.panics.Load()) })
	reg.GaugeFunc("dassa_quarantined_files",
		"poisoned files currently circuit-broken out of the catalog",
		func() float64 { return float64(s.ing.Stats().QuarantinedFiles) })
	reg.CounterFunc("dassa_quarantine_events_total",
		"files moved into quarantine over the daemon's life",
		func() float64 { return float64(s.ing.Stats().QuarantineEvents) })
	reg.CounterFunc("dassa_readmitted_files_total",
		"quarantined files readmitted after a clean re-probe",
		func() float64 { return float64(s.ing.Stats().ReadmittedFiles) })
}

// statusWriter captures the status code a handler writes, for metrics and
// the access log, and whether anything was written at all — the recovery
// middleware must not stack a 500 on a half-sent response.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true // implicit 200 path
	return w.ResponseWriter.Write(p)
}

// instrument wraps a route handler with latency/count metrics, one
// structured access-log line per request, and the request trace's root
// span. The trace ID comes from the client's X-Dassa-Trace header when it
// carries one (so a caller can stitch our trace into its own), is minted
// fresh otherwise, and is always echoed back on the response.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	ctr := s.httpReqs[route]
	lat := s.httpLat[route]
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		id := trace.OrNew(r.Header.Get(trace.Header))
		sw.Header().Set(trace.Header, string(id))
		ctx, root := trace.New(r.Context(), s.traces, "dassd", id, "http "+route)
		root.SetAttr("route", route)
		root.SetAttr("build_version", obs.BuildVersion)
		root.SetAttr("build_commit", obs.BuildCommit)
		root.SetAttrInt("uptime_seconds", int64(time.Since(s.start).Seconds()))
		h(sw, r.WithContext(ctx))
		d := time.Since(t0)
		if sw.code >= 400 {
			root.SetStatus("error")
			root.SetAttrInt("http_status", int64(sw.code))
		}
		root.End()
		ctr.Inc()
		lat.Observe(d.Seconds())
		shed := sw.code == http.StatusTooManyRequests
		s.log.Info("request",
			"route", route, "status", sw.code, "dur_ms", d.Milliseconds(), "shed", shed,
			"trace_id", id)
	}
}

// mountPprof exposes net/http/pprof on the mux (opt-in via
// Config.EnablePprof — profiling endpoints leak internals, so the default
// daemon serves none of them).
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
