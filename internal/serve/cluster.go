package serve

// Cluster fan-out: when Config.Workers is set the daemon owns a
// cluster.Coordinator, and /read windows and /detect's sub-runs (scores.go)
// execute across the worker pool. The fallback contract is deliberate: a
// request that finds no healthy worker at all degrades to the local engine
// (counted once, logged) rather than erroring — a half-dead cluster is the
// coordinator's problem (re-dispatch / NaN-degrade), but a fully dead one
// should not take the daemon's query surface with it.

import (
	"context"
	"errors"
	"net/http"
	"time"

	"dassa/internal/cluster"
	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/pfs"
)

// clusterDialTimeout is how long a run waits for the first healthy worker
// before falling back to the local engine. A package variable so tests can
// shorten the dead-cluster path.
var clusterDialTimeout = 5 * time.Second

// initCluster builds the coordinator when workers are configured. Called
// from NewServer after the registry and logger exist.
func (s *Server) initCluster() {
	if len(s.cfg.Workers) == 0 {
		return
	}
	co, err := cluster.NewCoordinator(cluster.Config{
		Workers:     s.cfg.Workers,
		DialTimeout: clusterDialTimeout,
		FailPolicy:  dass.FailDegrade,
		Log:         s.log,
		Registry:    s.reg,
	})
	if err != nil {
		// Only reachable with an empty worker list, which the guard above
		// excludes — but never let a config slip kill the daemon.
		s.log.Error("cluster disabled", "err", err)
		return
	}
	s.co = co
	s.reg.CounterFunc("dassa_cluster_fallbacks_total",
		"requests that fell back to the local engine (no healthy workers)",
		func() float64 { return float64(s.coFallback.Load()) })
}

// Close releases server-owned background resources (the coordinator's
// worker links). The ingester stops with its context; the HTTP listener
// belongs to the caller. Safe to call with no cluster configured.
func (s *Server) Close() {
	if s.co != nil {
		s.co.Close()
	}
}

// Cluster exposes the coordinator (nil when -workers is unset).
func (s *Server) Cluster() *cluster.Coordinator { return s.co }

// runCluster dispatches one request over the worker pool. used=false
// means no healthy worker existed and the caller should run the local
// engine instead; any other failure is the run's real error.
func (s *Server) runCluster(ctx context.Context, req cluster.Request) (res *cluster.Result, used bool, err error) {
	res, err = s.co.Run(ctx, req)
	if errors.Is(err, cluster.ErrNoWorkers) {
		s.coFallback.Add(1)
		s.log.Warn("no healthy workers, falling back to local engine",
			"workers", len(s.cfg.Workers))
		return nil, false, nil
	}
	return res, true, err
}

// read reads a /read window across the worker pool, or in process when none
// is configured or healthy; distributed reports which.
func (s *Server) read(ctx context.Context, sub *dass.View) (arr *dasf.Array2D, tr pfs.Trace, gaps []dass.Gap, distributed bool, err error) {
	if s.co != nil {
		res, used, err := s.runCluster(ctx, cluster.Request{View: sub, Op: cluster.OpRead})
		if err != nil {
			return nil, tr, nil, true, err
		}
		if used {
			return res.Data, res.Trace, res.Quality.Gaps, true, nil
		}
	}
	arr, tr, gaps, err = sub.ReadPolicy(dass.FailDegrade)
	return arr, tr, gaps, false, err
}

// handleHealthz is GET /healthz: liveness. Always 200 once the process
// is serving — it says "the daemon is up", nothing about whether it can
// answer queries yet. Registered outside admission control so it answers
// during overload.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz is GET /readyz: readiness. 503 until the first catalog
// scan has completed and — when workers are configured — at least one
// worker has a live heartbeat. Load balancers gate on this; /healthz
// stays green so the process is not restarted while it warms up.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	scans := s.ing.Stats().Scans
	ready := scans >= 1
	body := map[string]any{
		"scans": scans,
	}
	if s.co != nil {
		healthy := s.co.HealthyWorkers()
		body["workers"] = len(s.cfg.Workers)
		body["workers_healthy"] = healthy
		ready = ready && healthy >= 1
	}
	body["ready"] = ready
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}
