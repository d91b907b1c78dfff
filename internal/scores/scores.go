// Package scores keeps detector cells once computed and computes only the
// cells a map lacks (DESIGN.md §8, "Score tiles"). dassd runs it over its
// in-process /detect maps and every cluster worker over its shards, each
// with its own store.
//
// A cell is one output value, a channel at a strided time; its reach is the
// span of samples its value reads (detect.TimeReach). A tile is a run of
// consecutive cells of a whole-file view whose reaches touch the same member
// files and clamp at the same view edges, so its values depend on those
// files and the stride phase alone and are the same in every view that
// holds it. A map may keep a band of the view's rows, as a cluster worker
// keeps its shard's: its tiles hold those rows alone, and the rows around
// them are read, not scored. Missing tiles are computed by ordinary runs on
// time sub-views that score only the rows and cells they keep — the rest of
// a sub-view is the reach those cells read — so there is no second engine
// path, and every output carries the bits of a cold run over the whole view.
package scores

import (
	"context"
	"encoding/json"
	"sort"
	"strconv"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/detect"
)

// Runner computes the op's output rectangle k of sub, a time sub-view of the
// view being scored, into an array of k's rows and cells alone
// (core.Framework.RunCells), and reports what its reads lost (gaps relative
// to sub).
type Runner func(ctx context.Context, sub *dass.View, k arrayudf.Cells) (*dasf.Array2D, *dass.QualityReport, error)

// Stats says how one map was made.
type Stats struct {
	Tiles, TilesHit int
	SubRuns         int
	CellsComputed   int // by the sub-runs: CellsKept, and any cached cells a sub-run spans (subRuns)
	CellsKept       int // the missing tiles' cells, kept rows × cells
}

// Map says how one map was assembled and what its sub-runs lost.
type Map struct {
	Gaps     []dass.Gap // what the sub-runs lost, relative to the view
	Degraded bool
	Stats
}

// Dest receives a map's cells: vals are the cells of the map's row c (the
// c-th kept row) from cell c0 on. Compute hands it every cell of the map
// once.
type Dest func(c, c0 int, vals []float64)

// Into is the Dest that writes the cells into a, an array of the map's
// shape.
func Into(a *dasf.Array2D) Dest {
	return func(c, c0 int, vals []float64) { copy(a.Row(c)[c0:], vals) }
}

// Compute assembles p over the kept rows [chLo, chHi) of the whole-file view
// v, whose members are entries, into dst, from the tiles st holds and
// sub-runs of run over the missing ones, and stores the tiles of every
// sub-run whose reads were clean. A nil st stores nothing and computes the
// map in one run. The map is the kept rows × p's output cells over v.
func Compute(ctx context.Context, v *dass.View, entries []dass.Entry, chLo, chHi int, p detect.Params, st *LRU, run Runner, dst Dest) (Map, error) {
	pl := planScores(v, entries, chLo, chHi, p)
	m := Map{Stats: Stats{Tiles: len(pl.tiles)}}
	var missing []int
	for i, tl := range pl.tiles {
		if st != nil && tl.key != "" {
			if arr, ok := st.Lookup(tl.key); ok {
				place(dst, tl.c0, arr, 0, tl.c1-tl.c0)
				continue
			}
		}
		missing = append(missing, i)
		m.CellsKept += (chHi - chLo) * (tl.c1 - tl.c0)
	}
	m.TilesHit = len(pl.tiles) - len(missing)
	runs := pl.subRuns(missing)
	m.SubRuns = len(runs)
	for _, r := range runs {
		lo, hi, err := pl.bounds(r, p)
		if err != nil {
			return m, err
		}
		sub, err := v.Subset(0, pl.nch, lo, hi)
		if err != nil {
			return m, err
		}
		// The run's cells [c0, c1) of the view, counted in the sub-view from
		// its first cell, lo/stride, of the kept rows.
		c0, c1 := pl.tiles[r[0]].c0, pl.tiles[r[len(r)-1]].c1
		arr, q, err := run(ctx, sub, arrayudf.Cells{ChLo: chLo, ChHi: chHi, C0: c0 - lo/pl.stride, C1: c1 - lo/pl.stride})
		if err != nil {
			return m, err
		}
		m.CellsComputed += len(arr.Data)
		clean := !q.Degraded()
		if !clean {
			m.Degraded = true
			for _, g := range q.Gaps {
				g.TLo, g.THi = g.TLo+lo, g.THi+lo
				m.Gaps = append(m.Gaps, g)
			}
		}
		for _, i := range r {
			tl := pl.tiles[i]
			n := tl.c1 - tl.c0
			place(dst, tl.c0, arr, tl.c0-c0, n)
			if st != nil && tl.key != "" && clean {
				tile := dasf.NewArray2D(arr.Channels, n)
				place(Into(tile), 0, arr, tl.c0-c0, n)
				st.Store(tl.key, tile)
			}
		}
	}
	return m, nil
}

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
	// key names the tile in the store; an empty key (an op that declares
	// no reach) is never stored.
	key string
}

// scorePlan cuts one map into tiles.
type scorePlan struct {
	nch, nt, cells int
	stride         int
	back, fwd      int
	tiles          []scoreTile
}

// planScores tiles the cells of p over the rows [chLo, chHi) of the
// whole-file view v, whose members are entries. An op without a declared
// reach is one keyless tile: the whole map, computed by one run, as if there
// were no store.
func planScores(v *dass.View, entries []dass.Entry, chLo, chHi int, p detect.Params) scorePlan {
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
	// window and the kept rows in it, the stride phase of the first touched
	// member, the edge flags, and each touched member's path and stamp.
	raw, _ := json.Marshal(p)
	winLo, winHi, _, _ := v.Window()
	var b []byte
	for i := range pl.tiles {
		tl := &pl.tiles[i]
		b = append(append(append(b[:0], p.Op()...), ' '), raw...)
		b = strconv.AppendInt(append(b, " ch "...), int64(winLo), 10)
		b = strconv.AppendInt(append(b, ' '), int64(winHi), 10)
		b = strconv.AppendInt(append(b, " rows "...), int64(chLo), 10)
		b = strconv.AppendInt(append(b, ' '), int64(chHi), 10)
		b = strconv.AppendInt(append(b, " phase "...), int64(offs[tl.m0]%pl.stride), 10)
		b = strconv.AppendBool(append(b, " head "...), tl.head)
		b = strconv.AppendBool(append(b, " tail "...), tl.tail)
		for _, e := range entries[tl.m0 : tl.m1+1] {
			b = append(append(b, 0), e.Path...)
			b = strconv.AppendInt(append(b, ' '), e.Size, 10)
			b = strconv.AppendInt(append(b, ' '), e.ModTime, 10)
		}
		tl.key = string(b)
	}
	return pl
}

// subRuns groups the missing tiles into sub-runs, each a list of tile
// indices. A run swallows the cached cells up to the next missing tile when
// they are at most back+fwd samples' worth, and computes them again: a split
// there would cost a second engine run and the reads the two reaches share.
// The threshold is not derived from that cost (DESIGN.md §8).
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

// bounds returns the time sub-view [lo, hi) a run reads. It starts
// at 0 if the run holds a start-clamped cell, else at the last grid position
// at or before its first cell's reach; it ends at nt if the run holds an
// end-clamped cell, else one past its last cell's reach. Then it widens by
// whole strides until p accepts it. Every kept cell reads the same samples
// and clamps at the same edges in the sub-view as in the view, and lo is on
// the view's grid, so it is the same value. Cells of the sub-view outside the
// run's tiles are the reach its cells read; no sub-run scores them.
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

// place hands dst n cells of every channel of src, from src's cell sc0, as
// its cells from dc0.
func place(dst Dest, dc0 int, src *dasf.Array2D, sc0, n int) {
	for c := 0; c < src.Channels; c++ {
		dst(c, dc0, src.Row(c)[sc0:sc0+n])
	}
}
