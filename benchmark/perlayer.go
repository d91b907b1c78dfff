package main

import (
	"context"
	"fmt"
	"time"

	"dassa/internal/cluster"
	"dassa/internal/core"
	"dassa/internal/dass"
	"dassa/internal/wire"
)

// perLayer fills the workload-derived metrics of a traced run from its
// plain window (tracing off) and the spans of its layer walk. Layers a
// workload does not touch keep their zero. It returns a failed gate, if any.
// twinFor is how long serve_cluster's worker-less twin is measured.
func perLayer(m *metricSet, wl workload, plain *window, tr *tracer, twinFor time.Duration) error {
	sum := tr.summary()
	m.set("walk.coverage_ratio", sum.Coverage)
	// The real call inside the traced pass against the same call with
	// tracing off: what recording spans costs.
	m.set("trace.overhead_ratio", ratio(sum.StepMS["e2e."+wl.primary()], median(plain.lat[wl.primary()])))

	// The whole-window class-level numbers beside op_p50_ms/ops_s, under the
	// names each workload's operations go by.
	if xs := plain.lat["analyze"]; len(xs) > 0 {
		m.set("analyze_wall_s", median(xs)/1e3)
		n := float64(len(xs))
		wall := plain.sums["core_wall_ns"]
		read, compute, write := plain.sums["core_read_ns"], plain.sums["core_compute_ns"], plain.sums["core_write_ns"]
		m.set("core.read_share", ratio(read, wall))
		m.set("core.compute_share", ratio(compute, wall))
		m.set("core.write_share", ratio(write, wall))
		m.set("core.unattributed_share", ratio(wall-read-compute-write, wall))
		m.set("core.alloc_mb_op", plain.sums["alloc_mb"]/n)
	}
	if xs := plain.lat["detect"]; len(xs) > 0 {
		m.set("detect_p50_ms", percentile(xs, 50))
		m.set("detect_p95_ms", percentile(xs, 95))
		m.set("req_s", plain.opsPerSec())
	}
	if xs := plain.lat["read"]; len(xs) > 0 {
		m.set("read_p50_ms", percentile(xs, 50))
		m.set("read_p95_ms", percentile(xs, 95))
	}
	if xs := plain.lat["ingest"]; len(xs) > 0 {
		m.set("ingest_to_detect_p50_ms", percentile(xs, 50))
		m.set("ingest_to_detect_p95_ms", percentile(xs, 95))
		m.set("serve.ingest_scan_ms", median(plain.lat["scan"]))
	}
	if xs := plain.lat["search"]; len(xs) > 0 {
		m.set("serve.search_p50_us", percentile(xs, 50)*1e3)
	}
	if _, isBatch := wl.(*batch); !isBatch {
		hits, misses := plain.sums["cache_hits"], plain.sums["cache_misses"]
		m.set("serve.cache_hit_ratio", ratio(hits, hits+misses))
		m.set("serve.cache_evictions", plain.sums["cache_evictions"])
		m.set("serve.admission_queued", plain.sums["admission_queued"])
		m.set("serve.admission_rejected", plain.sums["admission_rejected"])
	}
	if n := len(plain.lat["read"]); n > 0 && plain.sums["read_body_bytes"] > 0 {
		m.set("serve.read_json_bytes_op", plain.sums["read_body_bytes"]/float64(n))
	}
	if bare, ok := sum.StepMS["serve.read_nodata"]; ok {
		m.set("serve.read_data_overhead_ms", sum.StepMS["e2e.read"]-bare)
	}

	gate := wl.gate(plain)
	if s, ok := wl.(*served); ok {
		if err := s.probe(m, plain, twinFor); err != nil && gate == nil {
			gate = err
		}
	}
	return gate
}

// gate: the mechanism each serve workload exists to exercise must have
// been in play during the window.
func (s *served) gate(w *window) error {
	hits, misses := w.sums["cache_hits"], w.sums["cache_misses"]
	switch {
	case s.distributed && w.sums["wire_bytes"] <= 0:
		return fmt.Errorf("no wire traffic: the cluster path was not used")
	case !s.distributed && w.sums["wire_bytes"] != 0:
		return fmt.Errorf("%v wire bytes moved with no workers configured", w.sums["wire_bytes"])
	case !s.distributed && ratio(hits, hits+misses) < 0.95:
		return fmt.Errorf("cache hit ratio %.3f < 0.95: the working set does not fit the cache",
			ratio(hits, hits+misses))
	}
	return nil
}

// probeRequests is how many requests of each class the sequential probe
// issues. One at a time, so the process-wide wire counters can be read
// around a single request.
const probeRequests = 8

// probe measures what only a quiet daemon can attribute: wire bytes per
// request, the coordinator called directly, a rescan — and, for the
// cluster workload, the same load against an in-process twin without
// workers, which gives the cluster path's overhead request for request.
func (s *served) probe(m *metricSet, plain *window, twinFor time.Duration) error {
	perClass := map[string][]float64{}
	var shards, redispatched float64
	var detects []request
	for _, r := range s.reqs {
		if r.class == "search" || len(perClass[r.class]) >= probeRequests {
			continue
		}
		before := wire.BytesIn() + wire.BytesOut()
		code, body, _, err := s.d.get(r.path)
		perClass[r.class] = append(perClass[r.class], float64(wire.BytesIn()+wire.BytesOut()-before))
		if err != nil {
			return err
		}
		if r.class == "detect" {
			resp, err := checkDetect(code, body, s.rec, r.win, s.distributed, s.rec.holdsQuake(r.win))
			if err != nil {
				return fmt.Errorf("probe %s: %w", r.path, err)
			}
			shards += float64(resp.Cluster.Shards)
			redispatched += float64(resp.Cluster.Redispatched)
			detects = append(detects, r)
		}
		if len(perClass["read"]) >= probeRequests && len(perClass["detect"]) >= probeRequests {
			break
		}
	}
	// Medians: a worker heartbeat landing inside a request adds its frame.
	m.set("wire.bytes_per_detect", median(perClass["detect"]))
	m.set("wire.bytes_per_read", median(perClass["read"]))

	var scans []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := s.d.srv.Ingester().ScanOnce(); err != nil {
			return err
		}
		scans = append(scans, ms(time.Since(t0)))
	}
	m.set("serve.ingest_scan_ms", median(scans))
	if !s.distributed {
		return nil
	}

	m.set("cluster.shards_per_req", shards/float64(len(detects)))
	m.set("cluster.redispatched", redispatched)
	var runs, workerBytes []float64
	simi := core.DefaultLocalSimi(s.rec.cfg.SampleRate).LocalSimiParams
	for _, r := range detects {
		entries := s.d.srv.Ingester().Catalog().SearchStartCount(s.rec.timestamp(r.win.first), r.win.count)
		v, err := dass.ViewOver(entries)
		if err != nil {
			return err
		}
		res, err := s.d.srv.Cluster().Run(context.Background(), cluster.Request{
			View: v, Op: cluster.OpLocalSimi, Rate: s.rec.cfg.SampleRate, LocalSimi: simi})
		if err != nil {
			return err
		}
		runs = append(runs, ms(res.Wall))
		workerBytes = append(workerBytes, float64(res.Trace.BytesRead))
	}
	m.set("cluster.run_p50_ms", median(runs))
	m.set("cluster.worker_bytes_read_per_req", median(workerBytes))

	twin := newServed(s.name+"-twin", false, s.sc, s.seed, "")
	if err := twin.serveRecord(s.rec); err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	local := twin.window(twinFor, nil)
	twin.d.close()
	if local.failed > 0 {
		return fmt.Errorf("twin: %v", local.why)
	}
	m.set("cluster.overhead_ms", median(plain.lat["detect"])-median(local.lat["detect"]))
	return nil
}
