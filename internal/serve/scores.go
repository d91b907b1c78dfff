package serve

// /detect's map (DESIGN.md §8, "Score tiles"): every computed detector cell
// is kept, by whoever computed it, and only missing cells are computed.
// With workers configured the whole view goes to the pool, and each worker
// assembles its shard from its own score store (internal/scores). Without
// them — or when no worker is healthy — dassd assembles the map from its
// score store and in-process sub-runs.

import (
	"context"
	"time"

	"dassa/internal/arrayudf"
	"dassa/internal/cluster"
	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/obs/trace"
	"dassa/internal/scores"
)

// scored is one /detect's map and how it was made. distributed: the workers
// computed it. cluster is the pool's run; phases and Stats are the
// in-process assembly's ("0s" each when no sub-run ran).
type scored struct {
	out         *dasf.Array2D
	distributed bool
	degraded    bool // some run lost data
	cluster     struct {
		DegradedShards int `json:"degraded_shards"`
		Redispatched   int `json:"redispatched"`
		Shards         int `json:"shards"`
		Workers        int `json:"workers"`
	}
	phases struct{ Read, Exchange, Compute, Write string } // core.Report.Phases' shape
	scores.Stats
}

// score computes p over the whole-file view v (members entries) under a
// serve.scores span: on the workers when configured and one is healthy,
// else in process. A detection holds a job slot while it computes; an
// in-process map served wholly from tiles takes none.
func (s *Server) score(ctx context.Context, v *dass.View, entries []dass.Entry, p detect.Params) (res scored, err error) {
	ctx, sp := trace.Start(ctx, "serve.scores")
	held := false
	defer func() {
		if held {
			<-s.jobs
		}
		s.cellsComputed.Add(int64(res.CellsComputed))
		sp.SetAttrInt("tiles", int64(res.Tiles))
		sp.SetAttrInt("tiles_hit", int64(res.TilesHit))
		sp.SetAttrInt("sub_runs", int64(res.SubRuns))
		sp.SetAttrInt("cells_computed", int64(res.CellsComputed))
		sp.SetAttrInt("cells_kept", int64(res.CellsKept))
		sp.EndErr(err)
	}()
	slot := func(ctx context.Context) error {
		if held {
			return nil
		}
		select {
		case s.jobs <- struct{}{}:
			held = true
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	if s.co != nil {
		if err := slot(ctx); err != nil {
			return res, err
		}
		cres, used, err := s.runCluster(ctx, cluster.Request{View: v, Params: p})
		if err != nil {
			return res, err
		}
		if used {
			s.quality.recordReport(cres.Quality)
			res.out, res.degraded, res.distributed = cres.Data, cres.Degraded(), true
			c := &res.cluster
			c.Shards, c.Redispatched, c.DegradedShards, c.Workers = cres.Shards, cres.Redispatched, cres.DegradedShards, cres.Workers
			return res, nil
		}
	}

	var took [4]time.Duration // the sub-runs' phases, summed
	run := func(ctx context.Context, sub *dass.View, k arrayudf.Cells) (*dasf.Array2D, *dass.QualityReport, error) {
		if err := slot(ctx); err != nil {
			return nil, nil, err
		}
		arr, rep, err := s.fw.RunCells(sub.WithContext(ctx), p, k)
		if err != nil {
			return nil, nil, err
		}
		for i, ph := range []string{rep.Phases.Read, rep.Phases.Exchange, rep.Phases.Compute, rep.Phases.Write} {
			d, _ := time.ParseDuration(ph)
			took[i] += d
		}
		s.quality.recordReport(rep.Quality)
		return arr, rep.Quality, nil
	}
	nch, nt := v.Shape()
	res.out = dasf.NewArray2D(nch, p.Workload(nt).OutSamples(nt))
	m, err := scores.Compute(ctx, v.WithSlabReader(s.cache.SlabReader()), entries, 0, nch, p, s.tiles, run, scores.Into(res.out))
	res.degraded, res.Stats = m.Degraded, m.Stats
	res.phases.Read, res.phases.Exchange = took[0].String(), took[1].String()
	res.phases.Compute, res.phases.Write = took[2].String(), took[3].String()
	return res, err
}
