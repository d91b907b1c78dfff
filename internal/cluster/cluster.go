// Package cluster is DASSA's multi-process execution subsystem: a
// Coordinator that partitions a view's channel range into shards and
// dispatches them over the wire protocol to registered workers (cmd/dassw),
// and the Worker that serves those shards by running the existing
// dasf/dass/arrayudf pipeline over its assigned slice.
//
// The design keeps the single-process engine as the zero-config default and
// mirrors its failure semantics across processes: a worker that dies
// mid-shard gets its shard re-dispatched to a healthy peer, and when no
// peer can take it the coordinator — under dass.FailDegrade — NaN-masks the
// shard and records the loss in the QualityReport exactly like a failed
// local rank. Cancellation crosses the wire both proactively (cancel
// frames poison in-flight shards) and passively (request envelopes carry
// the absolute deadline, so a worker enforces the same budget the
// coordinator's context does).
package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/pfs"
	"dassa/internal/wire"
)

// Op names a distributed operation: OpRead, or a registered analysis
// (detect.Op) the worker runs on the existing in-process pipeline.
type Op string

const (
	// OpRead assembles the raw channel × time window — a read is the absence
	// of an analysis, the one case the cluster knows by name.
	OpRead Op = "read"
	// OpLocalSimi is detect.DefaultOp under the name benchmark/ compiles
	// against (ROADMAP item 2 unpins it); nothing here compares against it.
	OpLocalSimi Op = "localsimi"
)

// Errors the coordinator surfaces to callers deciding between distributed
// and local execution.
var (
	// ErrNoWorkers reports that no registered worker is currently alive.
	// Callers typically fall back to the in-process engine.
	ErrNoWorkers = errors.New("cluster: no healthy workers")
	// ErrAllShardsLost reports that every shard of a request failed even
	// after re-dispatch — a fully-NaN result would be worse than letting
	// the caller fall back or fail loudly.
	ErrAllShardsLost = errors.New("cluster: all shards lost")
	// ErrNotShardable refuses an analysis whose workload has a Prepare: it
	// reads outside its rows (a master channel) and runs in process only.
	ErrNotShardable = errors.New("cluster: operation reads outside its shard, run it in process")
)

// Request is one distributed analysis over a view.
type Request struct {
	// View is the channel × time window to analyze. Its member files must
	// be reachable by every worker (shared-filesystem model).
	View *dass.View
	// Op is OpRead for a raw read; anything else runs Params, which names the
	// analysis and gives its bounds, halo, output extent and wire form.
	Op     Op
	Params detect.Params
	// Rate and LocalSimi are the spelling benchmark/ compiles against, kept
	// until ROADMAP item 2 unpins them. Rate is read nowhere. LocalSimi is
	// read in one place: an analysis request without Params runs it.
	Rate      float64
	LocalSimi detect.LocalSimiParams
	// Shards overrides the shard count (0 = 2 shards per healthy worker,
	// clamped to the channel width).
	Shards int
}

// Result is a completed distributed run, shaped like the in-process
// engine's report so callers can treat both paths uniformly.
type Result struct {
	// Data is the merged output array (channels × output samples).
	Data *dasf.Array2D
	// Quality accounts for shards and members lost under FailDegrade
	// (always non-nil; Quality.Degraded() reports actual loss).
	Quality *dass.QualityReport
	// Trace sums the workers' physical I/O.
	Trace pfs.Trace
	// Shards, Redispatched and DegradedShards describe the run's failover
	// activity; Workers is how many workers contributed results.
	Shards         int
	Redispatched   int
	DegradedShards int
	Workers        int
	// Wall is the end-to-end coordinator-side duration.
	Wall time.Duration
}

// Degraded reports whether the run completed with data loss.
func (r *Result) Degraded() bool { return r.Quality.Degraded() }

// filesOf flattens a view's physical members into wire specs with absolute
// paths (workers run in their own working directories).
func filesOf(v *dass.View) ([]wire.FileSpec, error) {
	info := v.Info()
	abs := func(p string) (string, error) {
		a, err := filepath.Abs(p)
		if err != nil {
			return "", fmt.Errorf("cluster: resolve %s: %w", p, err)
		}
		return a, nil
	}
	if info.Kind != dasf.KindVCA {
		p, err := abs(info.Path)
		if err != nil {
			return nil, err
		}
		return []wire.FileSpec{{
			Path: p, NumChannels: info.NumChannels, NumSamples: info.NumSamples,
		}}, nil
	}
	specs := make([]wire.FileSpec, len(info.Members))
	for i, m := range info.Members {
		p, err := abs(m.Name)
		if err != nil {
			return nil, err
		}
		specs[i] = wire.FileSpec{
			Path: p, NumChannels: m.NumChannels, NumSamples: m.NumSamples,
			Timestamp: m.Timestamp,
		}
	}
	return specs, nil
}

// entriesOf turns a frame's file specs back into the entries dass.ViewOver
// merges, as dassd's windows are — the worker-side inverse of filesOf.
func entriesOf(files []wire.FileSpec) []dass.Entry {
	entries := make([]dass.Entry, len(files))
	for i, f := range files {
		entries[i] = dass.Entry{Path: f.Path, Timestamp: f.Timestamp, Info: dasf.Info{
			Path: f.Path, Kind: dasf.KindData, NumChannels: f.NumChannels, NumSamples: f.NumSamples,
		}}
	}
	return entries
}
