package scores

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"dassa/internal/core"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/dass"
	"dassa/internal/detect"
)

// strided returns op's defaults at 250 Hz with the stride set.
func strided(t *testing.T, op string, stride int) detect.Params {
	t.Helper()
	o, _ := detect.Lookup(op)
	p := o.Default(250, 0)
	if err := detect.Set(p, "stride", fmt.Sprint(stride)); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestScorePlanArrival pins the planner on the benchmark's ingest geometry:
// 1 000-sample files, local similarity at its 250 Hz defaults (reach 66,
// stride 50), a four-file window one file on from the window before. The
// tiles are a head, an interior per file, a band per boundary and a tail;
// the arrival misses four of them and computes them in two sub-runs,
// [0,150) and [2850,4000) — 26 cells a channel for the 23 it keeps, not 80.
// Cold, the one sub-run is the whole view; STA/LTA at stride 1, whose
// interiors never fit the store, keeps today's single run.
func TestScorePlanArrival(t *testing.T) {
	dir := t.TempDir()
	cfg := dasgen.Config{Channels: 2, SampleRate: 250, FileSeconds: 4, NumFiles: 5, Seed: 2, DType: dasf.Float32}
	if _, err := dasgen.Generate(dir, cfg, nil); err != nil {
		t.Fatal(err)
	}
	cat, err := dass.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := cat.Entries()
	plan := func(win []dass.Entry, p detect.Params) scorePlan {
		v, err := dass.ViewOver(win)
		if err != nil {
			t.Fatal(err)
		}
		return planScores(v, win, p)
	}
	type span struct{ lo, hi int }
	runsOf := func(pl scorePlan, missing []int) (spans []span, cells int) {
		for _, run := range pl.subRuns(missing) {
			lo, hi, err := pl.bounds(run, strided(t, "localsimi", 50))
			if err != nil {
				t.Fatal(err)
			}
			spans = append(spans, span{lo, hi})
			cells += (hi - lo + pl.stride - 1) / pl.stride
		}
		return spans, cells
	}

	simi := strided(t, "localsimi", 50)
	prev, cur := plan(entries[:4], simi), plan(entries[1:], simi)
	var widths []int
	for _, tl := range cur.tiles {
		widths = append(widths, tl.c1-tl.c0)
	}
	if want := []int{2, 17, 3, 17, 3, 17, 3, 17, 1}; !slices.Equal(widths, want) {
		t.Fatalf("tile widths %v, want %v", widths, want)
	}
	have := map[string]bool{}
	for _, tl := range prev.tiles {
		have[tl.key] = true
	}
	var missing, all []int
	kept := 0
	for i, tl := range cur.tiles {
		all = append(all, i)
		if !have[tl.key] {
			missing = append(missing, i)
			kept += tl.c1 - tl.c0
		}
	}
	spans, cells := runsOf(cur, missing)
	if !slices.Equal(spans, []span{{0, 150}, {2850, 4000}}) || cells != 26 || kept != 23 {
		t.Errorf("arrival: sub-runs %v computing %d cells a channel, keeping %d; want [{0 150} {2850 4000}], 26, 23", spans, cells, kept)
	}
	if spans, cells := runsOf(cur, all); !slices.Equal(spans, []span{{0, 4000}}) || cells != 80 {
		t.Errorf("cold: sub-runs %v computing %d cells a channel, want the whole view", spans, cells)
	}

	stalta := strided(t, "stalta", 1)
	pl := plan(entries[:4], stalta)
	var interiors []int
	for i, tl := range pl.tiles {
		if tl.m0 == tl.m1 && !tl.head {
			interiors = append(interiors, i)
		}
	}
	runs := pl.subRuns(interiors)
	if len(interiors) != 4 || len(runs) != 1 {
		t.Fatalf("stalta: %d interior tiles in %d runs, want 4 in 1", len(interiors), len(runs))
	}
	if lo, hi, err := pl.bounds(runs[0], stalta); err != nil || lo != 0 || hi != 4000 {
		t.Errorf("stalta: the warm run is [%d,%d) (%v), want the whole view", lo, hi, err)
	}
}

// TestComputeKeepsCleanTiles: a map asked again is assembled from the store
// with no sub-run, bit for bit the cold run's; a run that lost data stores
// nothing, so the next one computes afresh; and a store evicts the least
// recently used down to its budget and keeps no tile past an eighth of it.
func TestComputeKeepsCleanTiles(t *testing.T) {
	dir := t.TempDir()
	cfg := dasgen.Config{Channels: 4, SampleRate: 250, FileSeconds: 4, NumFiles: 3, Seed: 3, DType: dasf.Float32}
	if _, err := dasgen.Generate(dir, cfg, dasgen.Fig10Events(cfg)); err != nil {
		t.Fatal(err)
	}
	cat, err := dass.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := cat.Entries()
	v, err := dass.ViewOver(entries)
	if err != nil {
		t.Fatal(err)
	}
	p := strided(t, "localsimi", 50)
	fw := core.New(core.Config{Nodes: 1, CoresPerNode: 2, FailPolicy: dass.FailDegrade})
	want, _, err := fw.Run(v, p, "")
	if err != nil {
		t.Fatal(err)
	}
	var lose bool // the next run reports a gap
	run := func(_ context.Context, sub *dass.View) (*dasf.Array2D, *dass.QualityReport, error) {
		out, rep, err := fw.Run(sub, p, "")
		if err != nil || !lose {
			return out, rep.Quality, err
		}
		nch, nt := sub.Shape()
		return out, &dass.QualityReport{Gaps: []dass.Gap{{ChHi: nch, TLo: 0, THi: nt}}}, nil
	}
	same := func(m Map) {
		t.Helper()
		for i := range want.Data {
			if math.Float64bits(m.Out.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("cell %d = %v, cold run %v", i, m.Out.Data[i], want.Data[i])
			}
		}
	}

	st := NewLRU(1 << 20)
	lose = true
	m, err := Compute(context.Background(), v, entries, p, st, run)
	if err != nil || !m.Degraded || len(m.Gaps) != 1 || st.Stats().Entries != 0 {
		t.Fatalf("lossy run: err %v, degraded %v, gaps %v, %d tiles stored; want degraded, one gap, none stored", err, m.Degraded, m.Gaps, st.Stats().Entries)
	}
	lose = false
	for pass, wantRuns := range []int{1, 0} {
		m, err := Compute(context.Background(), v, entries, p, st, run)
		if err != nil {
			t.Fatal(err)
		}
		if m.SubRuns != wantRuns || (wantRuns == 0 && m.TilesHit != m.Tiles) {
			t.Fatalf("pass %d: %d sub-runs, %d of %d tiles hit; want %d sub-runs", pass, m.SubRuns, m.TilesHit, m.Tiles, wantRuns)
		}
		same(m)
	}

	small := NewLRU(8 * 64) // eight tiles of 8 cells
	for i := range 10 {
		small.Store(fmt.Sprint(i), dasf.NewArray2D(1, 8))
	}
	small.Store("big", dasf.NewArray2D(1, 9)) // past an eighth of the budget
	_, oldest := small.Lookup("0")
	_, big := small.Lookup("big")
	if s := small.Stats(); s.Entries != 8 || s.Evictions != 2 || s.Bytes != 8*64 || oldest || big {
		t.Fatalf("small store: %+v, oldest kept %v, oversized kept %v", s, oldest, big)
	}
}
