// Command dassd is DASSA's streaming ingest + query daemon: it watches a
// directory for newly recorded per-minute DASF files, keeps a live catalog
// (and optionally a rolling virtual concatenated array) over them, and
// serves an HTTP JSON API backed by the in-process analysis engines.
//
//	dassd -dir ./das-data -addr 127.0.0.1:8057
//
// Endpoints:
//
//	GET /search?e=170728224[567]10        files by timestamp regex
//	GET /search?s=170728224510&c=2        files by start + count
//	GET /read?start=...&end=...&ch0=0&ch1=8&t0=0&t1=500
//	GET /detect?op=localsimi|stalta&start=...&end=...
//	GET /status                           catalog, ingest, cache, admission
//	GET /status?file=<name>               das_info -json for one file
//	GET /metrics                          Prometheus text exposition
//	GET /healthz                          liveness (200 once serving)
//	GET /readyz                           readiness (503 until scanned + workers up)
//	GET /debug/pprof/                     profiling (only with -pprof)
//
// With -workers host:port,... the daemon fans /read and /detect out
// across dassw shard workers, re-dispatching or NaN-degrading shards
// lost to worker failure.
//
// Logs are structured (-log-level, -log-format); SIGINT/SIGTERM drain
// in-flight requests and exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dassa/internal/obs"
	"dassa/internal/serve"
)

// splitWorkers parses the -workers flag: comma-separated host:port
// addresses, empty entries dropped so a trailing comma is harmless.
func splitWorkers(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func main() {
	var (
		dir      = flag.String("dir", "./das-data", "watched directory for arriving DASF files")
		addr     = flag.String("addr", "127.0.0.1:8057", "HTTP listen address (host:port, port 0 picks one)")
		poll     = flag.Duration("poll", 2*time.Second, "ingest poll interval")
		retain   = flag.Int("retain", 0, "serve only the newest N files (0 = all)")
		liveVCA  = flag.Bool("live-vca", true, "keep a VCA ("+serve.LiveVCAName+") of exactly the served window, rewritten on change and bounded by -retain")
		cacheMB  = flag.Int64("cache-mb", 64, "block cache budget in MiB, at least 1 (the score store gets a sixteenth on top)")
		inflight = flag.Int("max-inflight", 4, "queries executing concurrently")
		queue    = flag.Int("queue", 8, "queries waiting for a slot before new ones get 429")
		wait     = flag.Duration("queue-wait", 5*time.Second, "longest a queued query waits before 429")
		jobs     = flag.Int("jobs", 2, "concurrent /detect jobs")
		reqTO    = flag.Duration("request-timeout", 0, "per-request deadline covering queue wait, reads, and compute (0 = none)")
		quarN    = flag.Int("quarantine-after", 3, "consecutive failed scans before a file is quarantined (0 disables)")
		quarBO   = flag.Duration("quarantine-backoff", 0, "initial re-probe backoff for quarantined files (0 = 4x poll)")
		quarMax  = flag.Duration("quarantine-max-backoff", 5*time.Minute, "re-probe backoff ceiling")
		nodes    = flag.Int("nodes", 1, "simulated nodes for the analysis engine")
		cores    = flag.Int("cores", 4, "cores per node for the analysis engine; also the threads that format /read rows")
		workers  = flag.String("workers", "", "comma-separated dassw addresses; /read and /detect fan out across them")
		pprofOn  = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	)
	newLogger := obs.LogFlags(nil)
	flag.Parse()

	logger, err := newLogger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dassd: %v\n", err)
		os.Exit(2)
	}
	if *cacheMB < 1 {
		fmt.Fprintf(os.Stderr, "dassd: -cache-mb must be at least 1, got %d\n", *cacheMB)
		os.Exit(2)
	}

	if st, err := os.Stat(*dir); err != nil || !st.IsDir() {
		logger.Error("watched directory is not readable", "dir", *dir, "err", err)
		os.Exit(1)
	}

	// Metrics are also published as an expvar, so tooling that only speaks
	// /debug/vars (once pprof's mux side effects are mounted) finds them.
	obs.Default().PublishExpvar("dassa_metrics")

	s := serve.NewServer(serve.Config{
		Ingest: serve.IngestConfig{
			Dir:                  *dir,
			Poll:                 *poll,
			RetainFiles:          *retain,
			LiveVCA:              *liveVCA,
			QuarantineAfter:      *quarN,
			QuarantineBackoff:    *quarBO,
			QuarantineMaxBackoff: *quarMax,
			Log:                  logger,
		},
		CacheBytes:     *cacheMB << 20,
		MaxConcurrent:  *inflight,
		MaxQueue:       *queue,
		QueueWait:      *wait,
		DetectJobs:     *jobs,
		RequestTimeout: *reqTO,
		Nodes:          *nodes,
		CoresPerNode:   *cores,
		Workers:        splitWorkers(*workers),
		Log:            logger,
		EnablePprof:    *pprofOn,
	})
	defer s.Close()

	// Populate the catalog before accepting traffic, then poll.
	if err := s.Ingester().ScanOnce(); err != nil {
		logger.Error("initial scan failed", "err", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// Run writes the catalog index snapshot on its way out; wait for it
	// before exiting.
	ingested := make(chan struct{})
	go func() { s.Ingester().Run(ctx); close(ingested) }()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	// Printed on stdout so wrappers (and the e2e test) can discover the
	// port when -addr ends in :0.
	fmt.Printf("dassd: listening on %s (%d files cataloged)\n", ln.Addr(), s.Ingester().Catalog().Len())
	logger.Info("listening", "addr", ln.Addr().String(),
		"files", s.Ingester().Catalog().Len(), "pprof", *pprofOn)

	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		logger.Error("server failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	logger.Info("signal received, draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("shutdown failed", "err", err)
		os.Exit(1)
	}
	<-ingested
	logger.Info("shutdown complete")
}
