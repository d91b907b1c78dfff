package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"dassa/internal/cluster"
	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/obs"
	"dassa/internal/obs/trace"
	"dassa/internal/scores"
)

// Config sizes the daemon.
type Config struct {
	Ingest IngestConfig
	// CacheBytes bounds the block cache's decoded member files (default
	// 64 MiB, as float64). A member larger than this is read per request
	// and never kept. The score store beside it gets a sixteenth of that
	// on top.
	CacheBytes int64
	// MaxConcurrent bounds simultaneously executing queries; excess
	// requests wait in a bounded queue (default 4).
	MaxConcurrent int
	// MaxQueue bounds the wait queue; a request arriving when the queue is
	// full gets 429 + Retry-After immediately (default 8).
	MaxQueue int
	// QueueWait is the longest a queued request waits for a slot before
	// 429 (default 5s).
	QueueWait time.Duration
	// DetectJobs bounds concurrently executing /detect jobs within the
	// admitted set (default 2) — detection is the expensive workload.
	DetectJobs int
	// RequestTimeout bounds one query request end to end — queue wait,
	// reads, and compute included. A request past its deadline aborts with
	// 504 at the next cancellation point. Zero (the default) means no
	// per-request deadline, the historical CLI-compatible behaviour; client
	// disconnects still cancel either way via the request context.
	RequestTimeout time.Duration
	// Nodes/CoresPerNode size the in-process HAEE engine (defaults 1/4).
	Nodes        int
	CoresPerNode int
	// Workers lists cluster worker addresses (dassw instances). When
	// non-empty, /read windows and /detect's sub-runs fan out across them
	// through a coordinator; if no worker is healthy the request falls back
	// to the local engine (counted in dassa_cluster_fallbacks_total).
	Workers []string
	// Log receives structured server events (access logs included); nil
	// silences them.
	Log *slog.Logger
	// Registry receives the daemon's metrics; nil uses obs.Default(), so
	// storage-layer counters and server counters land on one /metrics page.
	Registry *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// daemon's mux. Off by default: profiling endpoints expose internals.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 8
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 5 * time.Second
	}
	if c.DetectJobs <= 0 {
		c.DetectJobs = 2
	}
	return c
}

// AdmissionStats snapshots the overload-control counters.
type AdmissionStats struct {
	Admitted int64 `json:"admitted"`
	Queued   int64 `json:"queued"`
	Rejected int64 `json:"rejected"`
	InFlight int64 `json:"in_flight"`
}

// admission is the bounded-queue gate in front of the query handlers:
// MaxConcurrent requests execute, MaxQueue more wait (up to QueueWait),
// everyone else gets an immediate 429. The daemon degrades; it does not
// collapse.
type admission struct {
	sem       chan struct{}
	queue     chan struct{}
	queueWait time.Duration
	admitted  atomic.Int64
	queued    atomic.Int64
	rejected  atomic.Int64
	inFlight  atomic.Int64
}

func newAdmission(cfg Config) *admission {
	return &admission{
		sem:       make(chan struct{}, cfg.MaxConcurrent),
		queue:     make(chan struct{}, cfg.MaxQueue),
		queueWait: cfg.QueueWait,
	}
}

// acquire returns a release func, or false if the request must be shed.
func (a *admission) acquire(r *http.Request) (func(), bool) {
	select {
	case a.sem <- struct{}{}:
	default:
		// No free slot: try to queue.
		select {
		case a.queue <- struct{}{}:
		default:
			a.rejected.Add(1)
			return nil, false
		}
		a.queued.Add(1)
		timer := time.NewTimer(a.queueWait)
		defer timer.Stop()
		select {
		case a.sem <- struct{}{}:
			<-a.queue
		case <-timer.C:
			<-a.queue
			a.rejected.Add(1)
			return nil, false
		case <-r.Context().Done():
			<-a.queue
			return nil, false
		}
	}
	a.admitted.Add(1)
	a.inFlight.Add(1)
	return func() {
		a.inFlight.Add(-1)
		<-a.sem
	}, true
}

func (a *admission) stats() AdmissionStats {
	return AdmissionStats{
		Admitted: a.admitted.Load(),
		Queued:   a.queued.Load(),
		Rejected: a.rejected.Load(),
		InFlight: a.inFlight.Load(),
	}
}

// Server is the dassd HTTP service: ingester + caches + handlers.
type Server struct {
	cfg        Config
	ing        *Ingester
	cache      *BlockCache
	fw         *core.Framework
	adm        *admission
	co         *cluster.Coordinator
	coFallback atomic.Int64
	jobs       chan struct{}
	jobsDone   atomic.Int64
	panics     atomic.Int64
	cancelled  atomic.Int64
	start      time.Time
	traces     *trace.Store

	// tiles is the score store: the detector cells in-process /detect
	// maps computed, by tile (scores.go).
	tiles         *scores.LRU
	cellsComputed *obs.Counter

	log      *slog.Logger
	reg      *obs.Registry
	quality  qualityCounters
	httpReqs map[string]*obs.Counter
	httpLat  map[string]*obs.Histogram
}

// NewServer wires the daemon together. Call s.Ingester().Run (or ScanOnce)
// to populate the catalog, and s.Handler() for the HTTP mux.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	cache, tiles := NewBlockCache(cfg.CacheBytes), scores.NewLRU(cfg.CacheBytes/16)
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	s := &Server{
		cfg:   cfg,
		ing:   NewIngester(cfg.Ingest, cache),
		cache: cache,
		tiles: tiles,
		fw: core.New(core.Config{
			Nodes:        cfg.Nodes,
			CoresPerNode: cfg.CoresPerNode,
			FailPolicy:   dass.FailDegrade,
		}),
		adm:    newAdmission(cfg),
		jobs:   make(chan struct{}, cfg.DetectJobs),
		start:  time.Now(),
		traces: trace.NewStore(trace.DefaultRecent, trace.DefaultSlowest),
		log:    obs.OrNop(cfg.Log),
		reg:    reg,
	}
	s.registerMetrics()
	s.initCluster()
	return s
}

// Ingester exposes the daemon's ingest loop.
func (s *Server) Ingester() *Ingester { return s.ing }

// Cache exposes the block cache (tests and /status use it).
func (s *Server) Cache() *BlockCache { return s.cache }

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Query routes stack instrument → recover → timeout → admit → handler.
	// The deadline is armed before admission so it covers queue wait too: a
	// request that spends its whole budget queued 504s instead of running.
	mux.HandleFunc("/search", s.instrument("/search", s.recovered(s.withTimeout(s.admit(s.handleSearch)))))
	mux.HandleFunc("/read", s.instrument("/read", s.recovered(s.withTimeout(s.admit(s.handleRead)))))
	mux.HandleFunc("/detect", s.instrument("/detect", s.recovered(s.withTimeout(s.admit(s.handleDetect)))))
	// /status and /metrics stay outside admission control: they are the
	// endpoints you use to observe overload, so they must answer during
	// overload.
	mux.HandleFunc("/status", s.instrument("/status", s.handleStatus))
	mux.Handle("/metrics", s.reg.Handler())
	// Probe endpoints sit outside admission (and even outside instrument:
	// orchestrators hit them every few seconds and they should not skew
	// the request-latency histograms).
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	// Trace inspection also stays outside instrument: reading traces must
	// not mint traces, or the store would fill with views of itself.
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	if s.cfg.EnablePprof {
		mountPprof(mux)
	}
	return mux
}

// admit wraps a handler with the bounded-queue gate.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, ok := s.adm.acquire(r)
		if !ok {
			// A request whose context died while queued was cancelled, not
			// shed — report it as such, not as a 429 the client should retry.
			if err := r.Context().Err(); err != nil {
				s.writeCancelled(w, err)
				return
			}
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error": "server overloaded, retry later",
			})
			return
		}
		defer release()
		h(w, r)
	}
}

// withTimeout arms Config.RequestTimeout on the request context. With the
// timeout off this is a no-op passthrough; client disconnects already
// cancel r.Context() either way.
func (s *Server) withTimeout(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.RequestTimeout <= 0 {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// recovered converts a handler panic into a 500 instead of killing the
// connection (and, under http.Server's default recovery, hiding the cause).
// The panic value and stack go to the structured log; the client gets a
// generic error so internals don't leak.
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			s.panics.Add(1)
			s.log.Error("handler panic",
				"url", r.URL.String(), "panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			if sw, ok := w.(*statusWriter); !ok || !sw.wrote {
				writeJSON(w, http.StatusInternalServerError, map[string]any{
					"error": "internal error (panic recovered)",
				})
			}
		}()
		h(w, r)
	}
}

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response. There is no stdlib constant for it.
const statusClientClosedRequest = 499

// writeCancelled answers a request whose context died: 504 for a deadline
// the server armed, 499 for a client that disconnected. Cancellation is
// never degraded into a partial 200 — the FailPolicy layers below return
// the context error verbatim precisely so this mapping can happen here.
func (s *Server) writeCancelled(w http.ResponseWriter, err error) {
	s.cancelled.Add(1)
	code := statusClientClosedRequest
	if errors.Is(err, context.DeadlineExceeded) {
		code = http.StatusGatewayTimeout
	}
	writeJSON(w, code, map[string]any{"error": err.Error()})
}

// writeQueryError maps a pipeline error onto the right status: cancellation
// → 499/504, anything else → 500. (What the client got wrong was answered 400
// before the pipeline ran.)
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	if dass.IsCancellation(err) {
		s.writeCancelled(w, err)
		return
	}
	writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf(format, args...)})
}

// queryInt parses an integer query parameter with a default.
func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q", name, v)
	}
	return n, nil
}

func queryInt64(r *http.Request, name string, def int64) (int64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q", name, v)
	}
	return n, nil
}

func queryFloat(r *http.Request, name string, def float64) (float64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q", name, v)
	}
	return f, nil
}

// fileJSON is one catalog entry in search results.
type fileJSON struct {
	Timestamp   int64  `json:"timestamp"`
	Path        string `json:"path"`
	NumChannels int    `json:"num_channels"`
	NumSamples  int    `json:"num_samples"`
}

func toFileJSON(entries []dass.Entry) []fileJSON {
	out := make([]fileJSON, len(entries))
	for i, e := range entries {
		out[i] = fileJSON{
			Timestamp:   e.Timestamp,
			Path:        e.Path,
			NumChannels: e.Info.NumChannels,
			NumSamples:  e.Info.NumSamples,
		}
	}
	return out
}

// selectEntries applies the das_search grammar to the live catalog:
// e= (regex over the 12-digit timestamp), s=&c= (start + count),
// start=&end= (half-open range), or everything.
func (s *Server) selectEntries(r *http.Request) ([]dass.Entry, error) {
	cat := s.ing.Catalog()
	q := r.URL.Query()
	if e := q.Get("e"); e != "" {
		return cat.SearchRegex(e)
	}
	start, err := queryInt64(r, "s", 0)
	if err != nil {
		return nil, err
	}
	count, err := queryInt(r, "c", 0)
	if err != nil {
		return nil, err
	}
	if start != 0 && count > 0 {
		return cat.SearchStartCount(start, count), nil
	}
	lo, err := queryInt64(r, "start", 0)
	if err != nil {
		return nil, err
	}
	hi, err := queryInt64(r, "end", 0)
	if err != nil {
		return nil, err
	}
	if lo != 0 || hi != 0 {
		if hi == 0 {
			hi = 1 << 62
		}
		return cat.SearchRange(lo, hi), nil
	}
	return cat.Entries(), nil
}

// selectView resolves the request's selection to the view over it — metadata
// only, nothing is read — and the files behind it.
func (s *Server) selectView(r *http.Request) (*dass.View, []dass.Entry, error) {
	entries, err := s.selectEntries(r)
	if err == nil && len(entries) == 0 {
		err = errors.New("no files match the selection")
	}
	if err != nil {
		return nil, nil, err
	}
	v, err := dass.ViewOver(entries)
	return v, entries, err
}

// handleSearch is GET /search — das_search over the live catalog.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	matches, err := s.selectEntries(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total_files": s.ing.Catalog().Len(),
		"matches":     len(matches),
		"files":       toFileJSON(matches),
	})
}

// handleRead is GET /read — a LAV-style channel×time subset over the
// selected files, read through the block cache. Parameters: the /search
// selection grammar plus ch0/ch1 (channel range), t0/t1 (sample range,
// view-relative) and data=0 to return only the summary.
func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	v, entries, err := s.selectView(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	v = v.WithSlabReader(s.cache.SlabReader()).WithContext(r.Context())
	nch, nt := v.Shape()
	ch0, err := queryInt(r, "ch0", 0)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	ch1, err := queryInt(r, "ch1", nch)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	t0, err := queryInt(r, "t0", 0)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	t1, err := queryInt(r, "t1", nt)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	sub, err := v.Subset(ch0, ch1, t0, t1)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	arr, tr, q, distributed, err := s.read(r.Context(), sub)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	s.quality.recordReport(q)
	if sp := trace.Current(r.Context()); sp != nil {
		sp.SetAttrInt("files", int64(len(entries)))
		sp.SetAttrInt("gaps", int64(len(q.Gaps)))
		sp.SetAttr("distributed", strconv.FormatBool(distributed))
	}
	resp := map[string]any{
		"num_channels": arr.Channels,
		"num_samples":  arr.Samples,
		"files":        len(entries),
		"io": map[string]int64{
			"opens": tr.Opens, "reads": tr.Reads, "bytes_read": tr.BytesRead,
		},
		"gaps":        len(q.Gaps),
		"distributed": distributed,
	}
	if r.URL.Query().Get("data") == "0" {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	writeReadJSON(w, resp, arr)
}

// writeReadJSON answers a /read with its samples: resp is the summary and
// arr goes out as its "data" rows, in the bytes encoding/json would write
// for the whole map, except that a masked (NaN) sample is null. encoding/json
// refuses NaN, and once the header is sent a refused body cannot be an
// error any more.
func writeReadJSON(w http.ResponseWriter, resp map[string]any, arr *dasf.Array2D) {
	var summary bytes.Buffer
	enc := json.NewEncoder(&summary)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// "data" sorts before every summary key, so it opens the object.
	b := append(make([]byte, 0, 64<<10), `{"data":[`...)
	for c := 0; c < arr.Channels; c++ {
		if c > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for i, v := range arr.Row(c) {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, v)
		}
		b = append(b, ']')
		if len(b) >= 32<<10 {
			if _, err := w.Write(b); err != nil {
				return
			}
			b = b[:0]
		}
	}
	b = append(b, "],"...)
	b = append(b, summary.Bytes()[1:]...)
	_, _ = w.Write(b)
}

// appendJSONFloat appends f the way encoding/json writes a float64, or
// null when f is not finite.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// handleDetect is GET /detect — a windowed detection job over the /search
// selection grammar: op= names a registered analysis with an event stage
// (detect.Op; detect.DefaultOp when absent), any key its parameter block
// declares overrides a default, threshold= cuts the events. All of it is
// checked against the metadata-only view before a job slot is taken: a
// malformed request never queues behind real detections to be told 400.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	v, entries, err := s.selectView(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	q := r.URL.Query()
	name := q.Get("op")
	if name == "" {
		name = detect.DefaultOp
	}
	op, _ := detect.Lookup(name)
	if op.Events == nil {
		badRequest(w, "unknown op %q: no registered analysis with an event stage has that name", name)
		return
	}
	threshold, err := queryFloat(r, "threshold", detect.DefaultThreshold)
	rate := v.Info().SampleRate()
	if rate <= 0 {
		rate = 100
	}
	nch, nt := v.Shape()
	p := op.Default(rate, nt)
	for _, f := range detect.Fields(p) {
		if val := q.Get(f.Key); val != "" {
			err = errors.Join(err, detect.Set(p, f.Key, val))
		}
	}
	if err == nil {
		err = p.Validate(nch, nt)
	}
	if err != nil {
		badRequest(w, "%v", err)
		return
	}

	// The map comes from the workers or from the score store and sub-runs
	// over what it lacks (scores.go); the event stage runs here, on the
	// whole map.
	t0 := time.Now()
	res, err := s.score(r.Context(), v.WithContext(r.Context()), entries, p)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	regions := op.Events(res.out, threshold)
	s.jobsDone.Add(1)
	resp := map[string]any{
		"op":          name,
		"files":       len(entries),
		"events":      append([]detect.Region{}, regions...), // [] when there are none, not null
		"wall_ms":     time.Since(t0).Milliseconds(),
		"distributed": res.distributed,
		"degraded":    res.degraded,
	}
	if res.distributed { // the phases ran on the workers: their haee.* spans are in the trace
		resp["cluster"] = res.cluster
	} else {
		resp["phases"] = res.phases
	}
	if sp := trace.Current(r.Context()); sp != nil {
		sp.SetAttr("op", name)
		sp.SetAttrInt("files", int64(len(entries)))
		sp.SetAttrInt("events", int64(len(regions)))
		sp.SetAttr("distributed", strconv.FormatBool(res.distributed))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStatus is GET /status: catalog size, ingest lag, cache and
// admission counters — plus ?file=<name> for the das_info -json view of
// one file in the watched directory.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("file"); name != "" {
		// Confine the detail view to the watched directory.
		path := filepath.Join(s.cfg.Ingest.Dir, filepath.Base(name))
		info, _, err := dasf.ReadInfo(path)
		if err != nil {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, dasf.NewInfoJSON(info))
		return
	}
	cat := s.ing.Catalog()
	catalog := map[string]any{"files": cat.Len()}
	if cat.Len() > 0 {
		entries := cat.Entries()
		catalog["oldest"] = entries[0].Timestamp
		catalog["newest"] = entries[len(entries)-1].Timestamp
		catalog["num_channels"] = entries[0].Info.NumChannels
	}
	var bad []string
	for _, b := range s.ing.BadFiles() {
		bad = append(bad, b.Path)
	}
	body := map[string]any{
		"uptime_ms":      time.Since(s.start).Milliseconds(),
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
		"build": map[string]any{
			"version": obs.BuildVersion,
			"commit":  obs.BuildCommit,
		},
		"catalog":   catalog,
		"ingest":    s.ing.Stats(),
		"cache":     s.cache.Stats(),
		"scores":    s.tiles.Stats(),
		"admission": s.adm.stats(),
		"quality":   s.quality.stats(),
		"jobs": map[string]any{
			"active": len(s.jobs), "max": cap(s.jobs), "done": s.jobsDone.Load(),
		},
		"bad_files":  bad,
		"quarantine": s.ing.Quarantined(),
	}
	if s.co != nil {
		body["cluster"] = map[string]any{
			"workers":   len(s.cfg.Workers),
			"healthy":   s.co.HealthyWorkers(),
			"fallbacks": s.coFallback.Load(),
		}
	}
	writeJSON(w, http.StatusOK, body)
}
