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
// holds it. Missing tiles are computed by ordinary runs on time sub-views:
// there is no second engine path, and every output carries the bits of a
// cold run over the whole view.
package scores

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/detect"
)

// Runner computes the op over sub, a time sub-view of the view being
// scored, and reports what its reads lost (gaps relative to sub).
type Runner func(ctx context.Context, sub *dass.View) (*dasf.Array2D, *dass.QualityReport, error)

// Stats says how one map was made.
type Stats struct {
	Tiles, TilesHit int
	SubRuns         int
	CellsComputed   int // by the sub-runs
	CellsKept       int // the missing tiles' cells
}

// Map is one assembled map.
type Map struct {
	Out      *dasf.Array2D
	Gaps     []dass.Gap // what the sub-runs lost, relative to the view
	Degraded bool
	Stats
}

// Compute assembles p over the whole-file view v, whose members are entries,
// from the tiles st holds and sub-runs of run over the missing ones, and
// stores the tiles of every sub-run whose reads were clean. A nil st stores
// nothing and runs the whole view once.
func Compute(ctx context.Context, v *dass.View, entries []dass.Entry, p detect.Params, st *LRU, run Runner) (Map, error) {
	pl := planScores(v, entries, p)
	m := Map{Out: dasf.NewArray2D(pl.nch, pl.cells), Stats: Stats{Tiles: len(pl.tiles)}}
	var missing []int
	for i, tl := range pl.tiles {
		if st != nil && tl.key != "" {
			if arr, ok := st.Lookup(tl.key); ok {
				place(m.Out, tl.c0, arr, 0, tl.c1-tl.c0)
				continue
			}
		}
		missing = append(missing, i)
		m.CellsKept += pl.nch * (tl.c1 - tl.c0)
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
		arr, q, err := run(ctx, sub)
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
		first := lo / pl.stride // the sub-view's first cell, in view cells
		for _, i := range r {
			tl := pl.tiles[i]
			n := tl.c1 - tl.c0
			place(m.Out, tl.c0, arr, tl.c0-first, n)
			if st != nil && tl.key != "" && clean {
				tile := dasf.NewArray2D(pl.nch, n)
				place(tile, 0, arr, tl.c0-first, n)
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
		tl.key = b.String()
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

// place copies n cells of every channel from src, starting at its cell sc0,
// into dst from its cell dc0.
func place(dst *dasf.Array2D, dc0 int, src *dasf.Array2D, sc0, n int) {
	for c := 0; c < dst.Channels; c++ {
		copy(dst.Row(c)[dc0:dc0+n], src.Row(c)[sc0:sc0+n])
	}
}
