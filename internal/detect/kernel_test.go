package detect

import (
	"math"
	"math/rand"
	"testing"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/daslib"
)

// The oracles are the detector bodies as they stood before the fused
// kernel: every window copied out of the block sample by sample (through
// Stencil.At, so they share nothing with Stencil.Span), scanned for NaN,
// and correlated one lag per daslib.AbsCorr call. The property tests pin
// the production UDFs to them bit for bit.

// hasNaN reports whether w contains a NaN gap marker.
func hasNaN(w []float64) bool {
	for _, v := range w {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

func oracleWindow(s *arrayudf.Stencil, tLo, tHi, dch int) []float64 {
	w := make([]float64, tHi-tLo+1)
	for i := range w {
		w[i] = s.At(tLo+i, dch)
	}
	return w
}

func localSimiOracle(p LocalSimiParams) arrayudf.PointUDF {
	return func(s *arrayudf.Stencil) float64 {
		w := oracleWindow(s, -p.M, p.M, 0)
		if hasNaN(w) {
			return 0
		}
		var cPlus, cMinus float64
		for l := -p.L; l <= p.L; l++ {
			w1 := oracleWindow(s, l-p.M, l+p.M, +p.K)
			w2 := oracleWindow(s, l-p.M, l+p.M, -p.K)
			if !hasNaN(w1) {
				cPlus = math.Max(cPlus, daslib.AbsCorr(w, w1))
			}
			if !hasNaN(w2) {
				cMinus = math.Max(cMinus, daslib.AbsCorr(w, w2))
			}
		}
		return (cPlus + cMinus) / 2
	}
}

func staltaOracle(p STALTAParams) arrayudf.PointUDF {
	meanSq := func(s *arrayudf.Stencil, n int) float64 {
		var sum float64
		for _, v := range oracleWindow(s, -(n - 1), 0, 0) {
			if !math.IsNaN(v) {
				sum += v * v
			}
		}
		return sum / float64(n)
	}
	return func(s *arrayudf.Stencil) float64 {
		sta, lta := meanSq(s, p.STASamples), meanSq(s, p.LTASamples)
		if lta <= 0 {
			return 0
		}
		return sta / lta
	}
}

// hostileBlock builds a block of noise salted with what degraded reads and
// dead fibre put into real records: NaN gaps, all-zero runs, ±Inf samples.
// With ghost > 0 the block carries that many halo rows on each side, so
// edge channels reach real neighbours; with ghost == 0 they clamp.
func hostileBlock(rng *rand.Rand, own, nt, ghost int) arrayudf.Block {
	a := dasf.NewArray2D(own+2*ghost, nt)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for c := 0; c < a.Channels; c++ {
		row := a.Row(c)
		for k := rng.Intn(3); k > 0; k-- { // NaN gap or zero run
			lo := rng.Intn(nt)
			hi := min(nt, lo+1+rng.Intn(nt/4+1))
			fill := 0.0
			if rng.Intn(2) == 0 {
				fill = math.NaN()
			}
			for i := lo; i < hi; i++ {
				row[i] = fill
			}
		}
		if rng.Intn(4) == 0 {
			row[rng.Intn(nt)] = math.Inf(1 - 2*rng.Intn(2))
		}
	}
	if rng.Intn(6) == 0 { // a wholly dead channel
		clear(a.Row(rng.Intn(a.Channels)))
	}
	return arrayudf.Block{Data: a, ChLo: ghost, ChHi: ghost + own, Ghost: ghost}
}

// sameCells evaluates got and want over every owned channel × strided time
// cell of blk — both time edges included — and compares by bit pattern.
func sameCells(t *testing.T, blk arrayudf.Block, stride int, got func(*arrayudf.Stencil) float64, want arrayudf.PointUDF, what string) {
	t.Helper()
	s, ref := blk.Stencil(0, 0), blk.Stencil(0, 0)
	for ch := 0; ch < blk.OwnedChannels(); ch++ {
		for tt := 0; tt < blk.Data.Samples; tt += stride {
			s.SetPos(ch, tt)
			ref.SetPos(ch, tt)
			g, w := got(s), want(ref)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: cell (%d,%d) = %v (%#x), oracle %v (%#x)",
					what, ch, tt, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

func TestLocalSimiKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	scr := daslib.NewScratch()
	for iter := 0; iter < 60; iter++ {
		p := LocalSimiParams{M: 1 + rng.Intn(12), K: 1 + rng.Intn(3), L: rng.Intn(6), Stride: 1 + rng.Intn(4)}
		if iter%5 == 0 {
			p.L = 0
		}
		// Short rows keep most cells within M+L of an edge; some rows are
		// shorter than one span, so every cell clamps on both sides.
		nt := 2 + rng.Intn(3*(p.M+p.L)+8)
		ghost := p.K * rng.Intn(2)
		blk := hostileBlock(rng, 1+rng.Intn(5), nt, ghost)
		udf, oracle := p.UDFScratch(), localSimiOracle(p)
		sameCells(t, blk, p.Stride, func(s *arrayudf.Stencil) float64 { return udf(s, scr) }, oracle, "arena")
		sameCells(t, blk, p.Stride, func(s *arrayudf.Stencil) float64 { return udf(s, nil) }, oracle, "nil-scratch")
		sameCells(t, blk, p.Stride, p.UDF(), oracle, "UDF shim")
	}
}

func TestSTALTAKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	scr := daslib.NewScratch()
	for iter := 0; iter < 60; iter++ {
		sta := 1 + rng.Intn(8)
		p := STALTAParams{STASamples: sta, LTASamples: sta + 1 + rng.Intn(30), Stride: 1 + rng.Intn(4)}
		blk := hostileBlock(rng, 1+rng.Intn(4), 2+rng.Intn(2*p.LTASamples), 0)
		udf, oracle := p.UDFScratch(), staltaOracle(p)
		sameCells(t, blk, p.Stride, func(s *arrayudf.Stencil) float64 { return udf(s, scr) }, oracle, "arena")
		sameCells(t, blk, p.Stride, func(s *arrayudf.Stencil) float64 { return udf(s, nil) }, oracle, "nil-scratch")
	}
}

// The 250 Hz defaults: core.DefaultLocalSimi's parameters, and dassd's
// /detect?op=stalta windows at the stride the benchmark's layer walk uses.
var (
	paperSimi   = LocalSimiParams{M: 62, K: 1, L: 4, Stride: 50}
	paperSTALTA = STALTAParams{STASamples: 25, LTASamples: 250, Stride: 16}
)

// benchBlock is 8 channels × 4000 samples of seeded noise, one ghost row
// each side — 16 s of 250 Hz data, the benchmark's 4-file /detect window.
func benchBlock() arrayudf.Block {
	rng := rand.New(rand.NewSource(7))
	a := dasf.NewArray2D(10, 4000)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return arrayudf.Block{Data: a, ChLo: 1, ChHi: 9, Ghost: 1}
}

// TestDetectCellsAllocFree pins the per-cell cost the engine loop pays: a
// warmed localsimi or STA/LTA cell allocates nothing — interior cells not
// even without an arena, since they borrow their windows from the block;
// edge cells once the arena holds their clamped-copy buffer.
func TestDetectCellsAllocFree(t *testing.T) {
	blk := benchBlock()
	nt := blk.Data.Samples
	simi, stalta := paperSimi.UDFScratch(), paperSTALTA.UDFScratch()
	scr := daslib.NewScratch()
	for _, tc := range []struct {
		name string
		udf  func(*arrayudf.Stencil, *daslib.Scratch) float64
		t    int
		scr  *daslib.Scratch
	}{
		{"localsimi interior, arena", simi, nt / 2, scr},
		{"localsimi interior, nil scratch", simi, nt / 2, nil},
		{"localsimi first cell, arena", simi, 0, scr},
		{"localsimi last cell, arena", simi, nt - 1, scr},
		{"stalta interior, arena", stalta, nt / 2, scr},
		{"stalta interior, nil scratch", stalta, nt / 2, nil},
		{"stalta first cell, arena", stalta, 0, scr},
	} {
		s := blk.Stencil(3, tc.t)
		tc.udf(s, tc.scr) // warm the arena
		if allocs := testing.AllocsPerRun(100, func() { sink = tc.udf(s, tc.scr) }); allocs != 0 {
			t.Errorf("%s: %v allocs per cell, want 0", tc.name, allocs)
		}
	}
}

var sink float64

// benchCells sweeps udf over the block's strided cells the way
// haee.ApplyMTScratch does on one thread and reports the per-cell cost.
func benchCells(b *testing.B, stride int, udf func(*arrayudf.Stencil, *daslib.Scratch) float64) {
	blk := benchBlock()
	s, scr := blk.Stencil(0, 0), daslib.NewScratch()
	own, outT := blk.OwnedChannels(), (blk.Data.Samples+stride-1)/stride
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ch := 0; ch < own; ch++ {
			for j := 0; j < outT; j++ {
				s.SetPos(ch, j*stride)
				sink = udf(s, scr)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*own*outT), "ns/cell")
}

func BenchmarkLocalSimiCell(b *testing.B) { benchCells(b, paperSimi.Stride, paperSimi.UDFScratch()) }

func BenchmarkSTALTACell(b *testing.B) { benchCells(b, paperSTALTA.Stride, paperSTALTA.UDFScratch()) }

// paperInterf is core.DefaultInterferometry(250): lowpass at rate/8,
// decimate by 2, ±128 lags against channel 0.
var paperInterf = InterferometryParams{
	Rate: 250, FilterOrder: 3, CutoffHz: 250.0 / 8,
	ResampleP: 1, ResampleQ: 2, MasterChannel: 0, MaxLag: 128,
}

// interfBlock is nch channels × nt samples of seeded red noise, and the
// master payload PrepareMaster would build from channel 0.
func interfBlock(tb testing.TB, p InterferometryParams, nch, nt int) (arrayudf.Block, *Master) {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	a := dasf.NewArray2D(nch, nt)
	for ch := 0; ch < nch; ch++ {
		prev := 0.0
		for i, row := 0, a.Row(ch); i < nt; i++ {
			prev = 0.9*prev + rng.NormFloat64()
			row[i] = prev
		}
	}
	series, err := p.Preprocess(a.Row(p.MasterChannel))
	if err != nil {
		tb.Fatal(err)
	}
	m := &Master{Series: series, Corr: daslib.PrepareXCorrMasterLags(series, len(series), p.MaxLag)}
	return arrayudf.Block{Data: a, ChLo: 0, ChHi: nch}, m
}

// TestInterferometryRowMatchesTrimmedCorrelation pins the row kernel's lag
// convention and values to the allocating pipeline it replaces — preprocess,
// full FFT correlation, TrimLags — to 1e-12 on the normalised lags, with
// MaxLag trimming, covering and absent, and for the stacked rows too.
func TestInterferometryRowMatchesTrimmedCorrelation(t *testing.T) {
	for _, tc := range []struct{ nt, maxLag int }{{2048, 40}, {2048, 0}, {2048, 5000}, {1001, 7}, {6000, 128}} {
		p := paperInterf
		p.MaxLag = tc.maxLag
		blk, master := interfBlock(t, p, 3, tc.nt)
		parts := p.Workload(tc.nt)
		got := make([]float64, parts.RowLen)
		for ch := 0; ch < 3; ch++ {
			parts.UDFInto(blk.Stencil(ch, 0), master, got, daslib.NewScratch())
			series, err := p.Preprocess(blk.Data.Row(ch))
			if err != nil {
				t.Fatal(err)
			}
			want := TrimLags(daslib.XCorrNormalized(series, master.Series), len(series), len(master.Series), parts.RowLen)
			for i := range want {
				if d := math.Abs(got[i] - want[i]); !(d <= 1e-12) {
					t.Fatalf("nt=%d maxLag=%d ch=%d: lag index %d = %v, trimmed full correlation %v", tc.nt, tc.maxLag, ch, i, got[i], want[i])
				}
			}
		}
	}

	sp := StackingParams{InterferometryParams: paperInterf, WindowSamples: 1024, OverlapSamples: 256}
	sp.MaxLag = 30
	blk, _ := interfBlock(t, sp.InterferometryParams, 2, 5000)
	sm, err := sp.prepareStackedMaster(blk.Data.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	got := sp.StackedUDF(sm)(blk.Stencil(1, 0))
	want := make([]float64, sp.StackedRowLen())
	hop := sp.WindowSamples - sp.OverlapSamples
	for w := range sm.Corrs {
		series, err := sp.Preprocess(blk.Data.Row(1)[w*hop : w*hop+sp.WindowSamples])
		if err != nil {
			t.Fatal(err)
		}
		mw := sm.Corrs[w].Series()
		for i, v := range TrimLags(daslib.XCorrNormalized(series, mw), len(series), len(mw), len(want)) {
			want[i] += v / float64(len(sm.Corrs))
		}
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= 1e-12) {
			t.Fatalf("stacked: lag index %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestInterferometryRowAllocFree: one warmed Workload.UDFInto row — 64 000
// raw samples through detrend, filtfilt, resample and the 42-block
// correlation — allocates nothing.
func TestInterferometryRowAllocFree(t *testing.T) {
	const nt = 64000
	blk, master := interfBlock(t, paperInterf, 2, nt)
	parts := paperInterf.Workload(nt)
	dst, scr, s := make([]float64, parts.RowLen), daslib.NewScratch(), blk.Stencil(1, 0)
	parts.UDFInto(s, master, dst, scr) // warm the arena and the plan caches
	if allocs := testing.AllocsPerRun(5, func() { parts.UDFInto(s, master, dst, scr) }); allocs != 0 {
		t.Errorf("%v allocs per row, want 0", allocs)
	}
}

// BenchmarkInterferometryRow is the batch_interferometry inner loop without
// the harness: one 64 000-sample channel at the 250 Hz defaults.
func BenchmarkInterferometryRow(b *testing.B) {
	const nt = 64000
	blk, master := interfBlock(b, paperInterf, 2, nt)
	parts := paperInterf.Workload(nt)
	dst, scr, s := make([]float64, parts.RowLen), daslib.NewScratch(), blk.Stencil(1, 0)
	parts.UDFInto(s, master, dst, scr) // warm the arena, as the engine's first row does
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts.UDFInto(s, master, dst, scr)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/row")
}
