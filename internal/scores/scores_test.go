package scores

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dassa/internal/arrayudf"
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
// the arrival misses four of them and computes them in two sub-runs that
// read [0,150) and [2850,4000) and score the 23 cells a channel it keeps,
// not 80, into the cold run's bits. Cold, the one sub-run is the whole
// view; STA/LTA at stride 1, whose interiors never fit the store, keeps
// today's single run.
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
		nch, _ := v.Shape()
		return planScores(v, win, 0, nch, p)
	}
	type span struct{ lo, hi int }
	runsOf := func(pl scorePlan, missing []int) (spans []span) {
		for _, run := range pl.subRuns(missing) {
			lo, hi, err := pl.bounds(run, strided(t, "localsimi", 50))
			if err != nil {
				t.Fatal(err)
			}
			spans = append(spans, span{lo, hi})
		}
		return spans
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
	if spans := runsOf(cur, missing); !slices.Equal(spans, []span{{0, 150}, {2850, 4000}}) || kept != 23 {
		t.Errorf("arrival: sub-runs %v keeping %d cells a channel; want [{0 150} {2850 4000}], 23", spans, kept)
	}
	if spans := runsOf(cur, all); !slices.Equal(spans, []span{{0, 4000}}) {
		t.Errorf("cold: sub-runs %v, want the whole view", spans)
	}

	// The same arrival through Compute: the window before fills the store,
	// and the arrival's two sub-runs score exactly the cells they keep.
	fw := core.New(core.Config{Nodes: 1, CoresPerNode: 2})
	run := func(_ context.Context, sub *dass.View, k arrayudf.Cells) (*dasf.Array2D, *dass.QualityReport, error) {
		out, rep, err := fw.RunCells(sub, simi, k)
		return out, rep.Quality, err
	}
	st := NewLRU(1 << 20)
	for i, win := range [][]dass.Entry{entries[:4], entries[1:]} {
		v, err := dass.ViewOver(win)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fw.Run(v, simi, "")
		if err != nil {
			t.Fatal(err)
		}
		got := dasf.NewArray2D(want.Channels, want.Samples)
		m, err := Compute(context.Background(), v, win, 0, want.Channels, simi, st, run, Into(got))
		if err != nil {
			t.Fatal(err)
		}
		wantRuns, wantKept := []int{1, 2}[i], []int{80, 23}[i]*cfg.Channels
		if m.SubRuns != wantRuns || m.CellsComputed != m.CellsKept || m.CellsKept != wantKept {
			t.Errorf("window %d: %d sub-runs computing %d cells, keeping %d; want %d computing and keeping %d",
				i, m.SubRuns, m.CellsComputed, m.CellsKept, wantRuns, wantKept)
		}
		for j := range want.Data {
			if math.Float64bits(got.Data[j]) != math.Float64bits(want.Data[j]) {
				t.Fatalf("window %d: cell %d = %v, cold run %v", i, j, got.Data[j], want.Data[j])
			}
		}
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
// with no sub-run, bit for bit the cold run's, every cell handed to the
// destination once; a run that lost data stores
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
	run := func(_ context.Context, sub *dass.View, k arrayudf.Cells) (*dasf.Array2D, *dass.QualityReport, error) {
		out, rep, err := fw.RunCells(sub, p, k)
		if err != nil || !lose {
			return out, rep.Quality, err
		}
		nch, nt := sub.Shape()
		return out, &dass.QualityReport{Gaps: []dass.Gap{{ChHi: nch, TLo: 0, THi: nt}}}, nil
	}
	st := NewLRU(1 << 20)
	// compute assembles the map into a fresh array through a Dest that counts
	// the times each cell is handed over: a worker's destination is a pooled
	// frame buffer that is not zeroed, so every cell must come exactly once.
	compute := func() (Map, *dasf.Array2D, error) {
		t.Helper()
		out := dasf.NewArray2D(want.Channels, want.Samples)
		into, puts := Into(out), make([]int, len(out.Data))
		m, err := Compute(context.Background(), v, entries, 0, want.Channels, p, st, run, func(c, c0 int, vals []float64) {
			for i := range vals {
				puts[c*out.Samples+c0+i]++
			}
			into(c, c0, vals)
		})
		if i := slices.IndexFunc(puts, func(n int) bool { return n != 1 }); err == nil && i >= 0 {
			t.Fatalf("cell %d handed over %d times, want once", i, puts[i])
		}
		return m, out, err
	}
	same := func(out *dasf.Array2D) {
		t.Helper()
		for i := range want.Data {
			if math.Float64bits(out.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("cell %d = %v, cold run %v", i, out.Data[i], want.Data[i])
			}
		}
	}

	lose = true
	m, _, err := compute()
	if err != nil || !m.Degraded || len(m.Gaps) != 1 || st.Stats().Entries != 0 {
		t.Fatalf("lossy run: err %v, degraded %v, gaps %v, %d tiles stored; want degraded, one gap, none stored", err, m.Degraded, m.Gaps, st.Stats().Entries)
	}
	lose = false
	for pass, wantRuns := range []int{1, 0} {
		m, out, err := compute()
		if err != nil {
			t.Fatal(err)
		}
		if m.SubRuns != wantRuns || (wantRuns == 0 && m.TilesHit != m.Tiles) {
			t.Fatalf("pass %d: %d sub-runs, %d of %d tiles hit; want %d sub-runs", pass, m.SubRuns, m.TilesHit, m.Tiles, wantRuns)
		}
		same(out)
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

// TestScoreTransparencyOverChannelWindows: over seeded random channel windows
// of a whole-file record, two random kept-row bands inside each and channel
// reaches of one and two rows, a map assembled cold, partly cached (from the
// tiles of maps over runs of one or two of its files, same window and band)
// and warm carries the bits of a cold core.Run over the window, sliced to the
// band. Every sub-run computes the band's rows alone, and one store serves
// every map, so a tile of another window or band is never served.
func TestScoreTransparencyOverChannelWindows(t *testing.T) {
	dir := t.TempDir()
	cfg := dasgen.Config{Channels: 10, SampleRate: 250, FileSeconds: 4, NumFiles: 4, Seed: 7, DType: dasf.Float32}
	if _, err := dasgen.Generate(dir, cfg, dasgen.Fig10Events(cfg)); err != nil {
		t.Fatal(err)
	}
	cat, err := dass.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := cat.Entries()
	fw := core.New(core.Config{Nodes: 1, CoresPerNode: 2})
	shared := NewLRU(1 << 20)
	rng := rand.New(rand.NewSource(11))
	partly := 0
	for draw := range 6 {
		p := strided(t, "localsimi", 50)
		reach := 1 + rng.Intn(2)
		if err := detect.Set(p, "K", fmt.Sprint(reach)); err != nil {
			t.Fatal(err)
		}
		w0 := rng.Intn(cfg.Channels - reach)
		w1 := w0 + reach + 1 + rng.Intn(cfg.Channels-w0-reach)
		for range 2 {
			b0 := rng.Intn(w1 - w0)
			b1 := b0 + 1 + rng.Intn(w1-w0-b0)
			run := func(_ context.Context, sub *dass.View, k arrayudf.Cells) (*dasf.Array2D, *dass.QualityReport, error) {
				if k.ChLo != b0 || k.ChHi != b1 {
					t.Fatalf("draw %d: a sub-run keeps rows [%d,%d), want the band [%d,%d)", draw, k.ChLo, k.ChHi, b0, b1)
				}
				out, rep, err := fw.RunCells(sub, p, k)
				return out, rep.Quality, err
			}
			// mapOf assembles the band over files [f0, f1) of the window from
			// st and checks it against the cold run's.
			mapOf := func(st *LRU, f0, f1 int) Map {
				t.Helper()
				win := entries[f0:f1]
				whole, err := dass.ViewOver(win)
				if err != nil {
					t.Fatal(err)
				}
				v, err := whole.SubsetChannels(w0, w1)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := fw.Run(v, p, "")
				if err != nil {
					t.Fatal(err)
				}
				got := dasf.NewArray2D(b1-b0, want.Samples)
				m, err := Compute(context.Background(), v, win, b0, b1, p, st, run, Into(got))
				if err != nil {
					t.Fatal(err)
				}
				for c := range got.Channels {
					for i, g := range got.Row(c) {
						if w := want.At(b0+c, i); math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("draw %d, window [%d,%d) band [%d,%d) files [%d,%d): (%d,%d) = %v, cold run %v",
								draw, w0, w1, b0, b1, f0, f1, c, i, g, w)
						}
					}
				}
				return m
			}

			n := len(entries)
			if m := mapOf(NewLRU(1<<20), 0, n); m.TilesHit != 0 || m.SubRuns != 1 || m.CellsComputed != m.CellsKept {
				t.Errorf("draw %d cold: %+v; want one sub-run computing what it keeps", draw, m.Stats)
			}
			for f := range n {
				for k := 1; k <= 2 && f+k <= n; k++ {
					if rng.Intn(2) == 0 {
						mapOf(shared, f, f+k)
					}
				}
			}
			if m := mapOf(shared, 0, n); m.TilesHit > 0 && m.TilesHit < m.Tiles {
				partly++
			}
			if m := mapOf(shared, 0, n); m.SubRuns != 0 || m.TilesHit != m.Tiles {
				t.Errorf("draw %d warm: %+v; want every tile hit", draw, m.Stats)
			}
		}
	}
	if partly == 0 {
		t.Error("no draw made a partly cached map")
	}
}
