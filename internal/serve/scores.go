package serve

// Score tiles (DESIGN.md §8): the in-process /detect path keeps every
// detector cell it computes, and computes only the cells it does not have.
// A cell is one output value, a channel at a strided time; its reach is the
// span of samples its value reads (detect.TimeReach). A tile is a run of
// consecutive cells of a whole-file view whose reaches touch the same member
// files and clamp at the same view edges, so its values depend on those
// files and the stride phase alone and are the same in every view that
// holds it. Missing tiles are computed by ordinary Framework.Run calls on
// time sub-views: there is no second engine path, and every output carries
// the bits of a cold run over the whole view.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/obs/trace"
)

// tileSig is a cell's signature: the members [m0, m1] its reach touches and
// whether the reach clamps at the view's first sample (head) or last (tail).
type tileSig struct {
	m0, m1     int
	head, tail bool
}

// scoreTile is the cells [c0, c1) of a view, consecutive cells of one
// signature.
type scoreTile struct {
	c0, c1 int
	tileSig
	// key names the tile in the score store; an empty key.tile (an op that
	// declares no reach) is never stored.
	key BlockKey
}

// scorePlan cuts one /detect into tiles.
type scorePlan struct {
	nch, nt, cells int
	stride         int
	back, fwd      int
	tiles          []scoreTile
}

// planScores tiles the cells of p over the whole-file view v, whose members
// are entries. An op without a declared reach is one keyless tile: the
// whole view, computed by one run, as if there were no store.
func planScores(v *dass.View, entries []dass.Entry, p detect.Params) scorePlan {
	nch, nt := v.Shape()
	w := p.Workload(nt)
	pl := scorePlan{nch: nch, nt: nt, cells: w.OutSamples(nt), stride: max(w.Spec.TimeStride, 1)}
	back, fwd, ok := detect.TimeReach(p)
	if !ok {
		pl.tiles = []scoreTile{{c1: pl.cells, tileSig: tileSig{head: true, tail: true}}}
		return pl
	}
	pl.back, pl.fwd = back, fwd
	offs := make([]int, len(entries)+1)
	for i, e := range entries {
		offs[i+1] = offs[i] + e.Info.NumSamples
	}
	member := func(t int) int { // the member holding sample t
		return sort.Search(len(entries), func(j int) bool { return offs[j+1] > t })
	}
	for c := 0; c < pl.cells; c++ {
		lo, hi := c*pl.stride-back, c*pl.stride+fwd
		sig := tileSig{m0: member(max(lo, 0)), m1: member(min(hi, nt-1)), head: lo < 0, tail: hi >= nt}
		if n := len(pl.tiles) - 1; n >= 0 && pl.tiles[n].tileSig == sig {
			pl.tiles[n].c1++
			continue
		}
		pl.tiles = append(pl.tiles, scoreTile{c0: c, c1: c + 1, tileSig: sig})
	}
	// The key: the op and its parameters as their wire form, the channel
	// window, the stride phase of the first touched member, the edge flags,
	// and each touched member's path and stamp.
	raw, _ := json.Marshal(p)
	chLo, chHi, _, _ := v.Window()
	for i := range pl.tiles {
		tl := &pl.tiles[i]
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s ch[%d,%d) phase %d head %t tail %t", p.Op(), raw, chLo, chHi,
			offs[tl.m0]%pl.stride, tl.head, tl.tail)
		for _, e := range entries[tl.m0 : tl.m1+1] {
			fmt.Fprintf(&b, "\x00%s %d %d", e.Path, e.Size, e.ModTime)
		}
		tl.key = BlockKey{Path: entries[tl.m0].Path, tile: b.String()}
	}
	return pl
}

// subRuns groups the missing tiles into sub-runs, each a list of tile
// indices. A run swallows the cached cells up to the next missing tile when
// they are at most back+fwd samples' worth: splitting there would recompute
// as many cells at the two new sub-view edges as it saves.
func (pl *scorePlan) subRuns(missing []int) [][]int {
	var runs [][]int
	for _, i := range missing {
		if n := len(runs) - 1; n >= 0 {
			last := pl.tiles[runs[n][len(runs[n])-1]]
			if (pl.tiles[i].c0-last.c1)*pl.stride <= pl.back+pl.fwd {
				runs[n] = append(runs[n], i)
				continue
			}
		}
		runs = append(runs, []int{i})
	}
	return runs
}

// bounds returns the time sub-view [lo, hi) a run is computed on. It starts
// at 0 if the run holds a start-clamped cell, else at the last grid position
// at or before its first cell's reach; it ends at nt if the run holds an
// end-clamped cell, else one past its last cell's reach. Then it widens by
// whole strides until p accepts it. Every kept cell reads the same samples
// and clamps at the same edges in the sub-view as in the view, and lo is on
// the view's grid, so it is the same value.
func (pl *scorePlan) bounds(run []int, p detect.Params) (lo, hi int, err error) {
	first, last, s := pl.tiles[run[0]], pl.tiles[run[len(run)-1]], pl.stride
	lo, hi = 0, pl.nt
	if !first.head {
		lo = (first.c0*s - pl.back) / s * s
	}
	if !last.tail {
		hi = (last.c1-1)*s + pl.fwd + 1
	}
	for err = p.Validate(pl.nch, hi-lo); err != nil; err = p.Validate(pl.nch, hi-lo) {
		switch {
		case hi < pl.nt:
			hi = min(lo+((hi-lo)/s+1)*s, pl.nt)
		case lo > 0:
			lo -= s
		default:
			return 0, 0, err
		}
	}
	return lo, hi, nil
}

// scored is the in-process /detect result: the assembled map, the engine
// phases summed over the sub-runs that ran ("0s" each when none did), and
// whether any of them lost data.
type scored struct {
	out      *dasf.Array2D
	phases   struct{ Read, Exchange, Compute, Write string } // core.Report.Phases' shape
	degraded bool
}

// score computes p over the whole-file view v (members entries) from the
// score store and sub-runs over the missing tiles, under a serve.scores
// span. Tiles are stored only from sub-runs whose reads were clean.
func (s *Server) score(ctx context.Context, v *dass.View, entries []dass.Entry, p detect.Params) (res scored, err error) {
	ctx, sp := trace.Start(ctx, "serve.scores")
	v = v.WithSlabReader(s.memberSlabs(entries))
	pl := planScores(v, entries, p)
	var missing []int
	var runs [][]int
	var kept, computed int
	defer func() {
		s.cellsComputed.Add(int64(computed))
		sp.SetAttrInt("tiles", int64(len(pl.tiles)))
		sp.SetAttrInt("tiles_hit", int64(len(pl.tiles)-len(missing)))
		sp.SetAttrInt("sub_runs", int64(len(runs)))
		sp.SetAttrInt("cells_computed", int64(computed))
		sp.SetAttrInt("cells_kept", int64(kept))
		sp.EndErr(err)
	}()
	res.out = dasf.NewArray2D(pl.nch, pl.cells)
	for i, tl := range pl.tiles {
		if tl.key.tile != "" {
			if arr, ok := s.tiles.lookup(tl.key); ok {
				place(res.out, tl.c0, arr, 0, tl.c1-tl.c0)
				continue
			}
		}
		missing = append(missing, i)
		kept += pl.nch * (tl.c1 - tl.c0)
	}
	runs = pl.subRuns(missing)
	var phases [4]time.Duration
	for _, run := range runs {
		arr, rep, err := s.subRun(ctx, v, p, &pl, run, res.out)
		if err != nil {
			return res, err
		}
		res.degraded = res.degraded || rep.Degraded()
		for i, ph := range []string{rep.Phases.Read, rep.Phases.Exchange, rep.Phases.Compute, rep.Phases.Write} {
			d, _ := time.ParseDuration(ph)
			phases[i] += d
		}
		computed += len(arr.Data)
	}
	res.phases.Read, res.phases.Exchange = phases[0].String(), phases[1].String()
	res.phases.Compute, res.phases.Write = phases[2].String(), phases[3].String()
	return res, nil
}

// subRun computes one run of missing tiles on its time sub-view of v,
// places them into out and, when the run's reads were clean, stores them.
// It returns the sub-run's whole output (every cell it computed) and report.
func (s *Server) subRun(ctx context.Context, v *dass.View, p detect.Params, pl *scorePlan, run []int, out *dasf.Array2D) (*dasf.Array2D, core.Report, error) {
	lo, hi, err := pl.bounds(run, p)
	if err != nil {
		return nil, core.Report{}, err
	}
	sub, err := v.Subset(0, pl.nch, lo, hi)
	if err != nil {
		return nil, core.Report{}, err
	}
	arr, rep, err := s.fw.Run(sub.WithContext(ctx), p, "")
	if err != nil {
		return nil, rep, err
	}
	s.quality.recordReport(rep.Quality)
	first := lo / pl.stride // the sub-view's first cell, in view cells
	for _, i := range run {
		tl := pl.tiles[i]
		n := tl.c1 - tl.c0
		place(out, tl.c0, arr, tl.c0-first, n)
		if tl.key.tile != "" && !rep.Degraded() {
			tile := dasf.NewArray2D(pl.nch, n)
			place(tile, 0, arr, tl.c0-first, n)
			s.tiles.store(tl.key, tile)
		}
	}
	return arr, rep, nil
}

// memberSlabs is the sub-runs' read hook. A sub-view cuts its first and
// last member short; read through the block cache as such, every cut would
// be a one-off key no later request asks for (its tiles make the same
// sub-run unnecessary), crowding out the blocks that are asked for. So each
// member is read whole, under the key a whole-window run uses, and the
// sub-view's part copied out of it.
func (s *Server) memberSlabs(entries []dass.Entry) dass.SlabReaderFunc {
	samples := make(map[string]int, len(entries))
	for _, e := range entries {
		samples[e.Path] = e.Info.NumSamples
	}
	read := s.cache.SlabReader()
	return func(ctx context.Context, path string, chLo, chHi, tLo, tHi int) (*dasf.Array2D, dasf.IOStats, error) {
		n := samples[path]
		whole, st, err := read(ctx, path, chLo, chHi, 0, n)
		if err != nil || (tLo == 0 && tHi == n) {
			return whole, st, err
		}
		part := dasf.NewArray2D(chHi-chLo, tHi-tLo)
		for c := 0; c < part.Channels; c++ {
			copy(part.Row(c), whole.Row(c)[tLo:tHi])
		}
		return part, st, nil
	}
}

// place copies n cells of every channel from src, starting at its cell sc0,
// into dst from its cell dc0.
func place(dst *dasf.Array2D, dc0 int, src *dasf.Array2D, sc0, n int) {
	for c := 0; c < dst.Channels; c++ {
		copy(dst.Row(c)[dc0:dc0+n], src.Row(c)[sc0:sc0+n])
	}
}
