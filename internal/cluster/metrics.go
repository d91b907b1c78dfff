package cluster

import (
	"time"

	"dassa/internal/obs"
	"dassa/internal/wire"
)

// metrics is the coordinator's instrument panel. A nil *metrics (no
// registry configured) makes every method a no-op, so the hot path never
// branches on configuration.
type metrics struct {
	reg      *obs.Registry
	shards   map[string]*obs.Counter // outcome → counter
	dispatch *obs.Counter
	latency  map[string]*obs.Histogram // worker address → histogram
}

// shardOutcomes is the closed label vocabulary of dassa_cluster_shards_total.
var shardOutcomes = []string{"done", "retried", "degraded", "cancelled", "failed"}

func newMetrics(reg *obs.Registry, co *Coordinator) *metrics {
	if reg == nil {
		return nil
	}
	m := &metrics{
		reg:    reg,
		shards: map[string]*obs.Counter{},
		dispatch: reg.Counter("dassa_cluster_dispatch_total",
			"shard requests sent to workers (including re-dispatches)"),
		latency: map[string]*obs.Histogram{},
	}
	for _, o := range shardOutcomes {
		m.shards[o] = reg.Counter("dassa_cluster_shards_total",
			"shard fates by outcome", obs.L("outcome", o))
	}
	reg.GaugeFunc("dassa_cluster_workers", "registered workers currently alive",
		func() float64 { return float64(co.healthyCount()) })
	reg.CounterFunc("dassa_wire_bytes_total", "wire-protocol bytes received",
		func() float64 { return float64(wire.BytesIn()) }, obs.L("dir", "in"))
	reg.CounterFunc("dassa_wire_bytes_total", "wire-protocol bytes sent",
		func() float64 { return float64(wire.BytesOut()) }, obs.L("dir", "out"))
	reg.CounterFunc("dassa_wire_version_mismatch_total",
		"handshakes refused for an incompatible peer protocol version",
		func() float64 { return float64(wire.VersionMismatches()) })
	// Per-worker latency series are bounded by the -workers flag's
	// cardinality, fixed at process start.
	for _, l := range co.links {
		m.latency[l.addr] = reg.Histogram("dassa_cluster_shard_seconds",
			"per-worker shard round-trip latency", obs.LatencyBuckets(),
			obs.L("worker", l.addr))
	}
	return m
}

func (m *metrics) outcome(o string) {
	if m == nil {
		return
	}
	if c, ok := m.shards[o]; ok {
		c.Inc()
	}
}

func (m *metrics) dispatched() {
	if m == nil {
		return
	}
	m.dispatch.Inc()
}

func (m *metrics) observeLatency(worker string, d time.Duration) {
	if m == nil {
		return
	}
	if h, ok := m.latency[worker]; ok {
		h.Observe(d.Seconds())
	}
}
