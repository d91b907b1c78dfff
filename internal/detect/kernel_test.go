package detect

import (
	"context"
	"fmt"
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
// the production UDFs to them: bit for bit where a cell is scanned as one
// segment, and to agree's contract where it is assembled from partial sums.

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

// agree is the detectors' numeric contract against their oracles. A cell
// assembled from partial sums adds the same products in another order, so it
// may differ from the oracle in the last place: it must be within 1e-12, NaN
// exactly where the oracle is NaN, and exactly 0 (or ±Inf) where the oracle
// is — masked windows and dead channels are not approximately silent. A cell
// scanned directly (exact) performs the oracle's additions in the oracle's
// order and must match it bit for bit.
func agree(got, want float64, exact bool) bool {
	switch {
	case exact:
		return math.Float64bits(got) == math.Float64bits(want)
	case math.IsNaN(want):
		return math.IsNaN(got)
	case want == 0 || math.IsInf(want, 0):
		return got == want
	default:
		return math.Abs(got-want) <= 1e-12
	}
}

// sameCells evaluates got and want over every owned channel × strided time
// cell of blk from time index first on — both time edges included — and
// holds each cell to agree; direct says which time indices the detector
// scans as one segment.
func sameCells(t *testing.T, blk arrayudf.Block, first, stride int, got func(*arrayudf.Stencil) float64, want arrayudf.PointUDF, direct func(tt int) bool, what string) {
	t.Helper()
	s, ref := blk.Stencil(0, 0), blk.Stencil(0, 0)
	for ch := 0; ch < blk.OwnedChannels(); ch++ {
		for tt := first; tt < blk.Data.Samples; tt += stride {
			s.SetPos(ch, tt)
			ref.SetPos(ch, tt)
			if g, w := got(s), want(ref); !agree(g, w, direct(tt)) {
				t.Fatalf("%s: cell (%d,%d) = %v (%#x), oracle %v (%#x), direct=%v",
					what, ch, tt, g, math.Float64bits(g), w, math.Float64bits(w), direct(tt))
			}
		}
	}
}

// simiDirect and staltaDirect say which cells of an nt-sample row the
// detectors scan directly: the ones whose windows clamp at a time edge, and
// all of them when the geometry does not assemble windows from partial sums.
func simiDirect(p LocalSimiParams, nt int) func(int) bool {
	partials := p.grid().partials
	return func(tt int) bool { return !partials || tt < p.M+p.L || tt+p.M+p.L >= nt }
}

func staltaDirect(p STALTAParams) func(int) bool {
	partials := p.grid().partials
	return func(tt int) bool { return !partials || tt < p.LTASamples-1 }
}

func always(int) bool { return true }

// randomSimi draws local-similarity parameters with every stride from one
// sample to past a whole window: windows scanned directly because folding
// their many short segments would cost more, windows of many segments, of
// two, of exactly one. Every other draw takes its stride from the middle of
// that range, where windows are assembled from partial sums.
func randomSimi(rng *rand.Rand) LocalSimiParams {
	p := LocalSimiParams{M: 1 + rng.Intn(20), K: 1 + rng.Intn(3), L: rng.Intn(6)}
	p.Stride = 1 + rng.Intn(2*p.M+8)
	if rng.Intn(2) == 0 {
		p.M += 5
		p.Stride = p.M/2 + rng.Intn(p.M)
	}
	return p
}

func randomSTALTA(rng *rand.Rand) STALTAParams {
	sta := 1 + rng.Intn(8)
	p := STALTAParams{STASamples: sta, LTASamples: sta + 1 + rng.Intn(40)}
	p.Stride = 1 + rng.Intn(p.LTASamples+8)
	if rng.Intn(2) == 0 {
		p.LTASamples += 30
		p.Stride = p.LTASamples/3 + rng.Intn(p.LTASamples/3)
	}
	return p
}

func TestLocalSimiKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	scr := daslib.NewScratch()
	folded := 0
	for iter := 0; iter < 160; iter++ {
		p := randomSimi(rng)
		if iter%5 == 0 {
			p.L = 0
		}
		if p.grid().partials {
			folded++
		}
		// Short rows keep most cells within M+L of an edge — some are
		// shorter than one span, so every cell clamps on both sides; long
		// ones have an interior many windows wide.
		nt := 2 + rng.Intn(3*(p.M+p.L)+8)
		if iter%2 == 0 {
			nt += 6 * (p.M + p.L + p.Stride)
		}
		ghost := p.K * rng.Intn(2)
		blk := hostileBlock(rng, 1+rng.Intn(5), nt, ghost)
		udf, oracle, direct := p.UDFScratch(), localSimiOracle(p), simiDirect(p, nt)
		sameCells(t, blk, 0, p.Stride, func(s *arrayudf.Stencil) float64 { poisonArena(scr); return udf(s, scr) }, oracle, direct, "arena")
		sameCells(t, blk, 0, p.Stride, func(s *arrayudf.Stencil) float64 { return udf(s, nil) }, oracle, direct, "nil-scratch")
		// Off the stride grid every cell is one segment.
		if p.Stride > 1 {
			first := 1 + rng.Intn(p.Stride-1)
			sameCells(t, blk, first, p.Stride, func(s *arrayudf.Stencil) float64 { return udf(s, scr) }, oracle, always, "off-grid")
		}
	}
	if folded < 40 || folded > 120 {
		t.Errorf("%d of 160 parameter sets assemble windows from partial sums: the draw no longer covers both sides", folded)
	}
}

func TestSTALTAKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	scr := daslib.NewScratch()
	folded := 0
	for iter := 0; iter < 160; iter++ {
		p := randomSTALTA(rng)
		if p.grid().partials {
			folded++
		}
		nt := 2 + rng.Intn(2*p.LTASamples)
		if iter%2 == 0 {
			nt += 6 * (p.LTASamples + p.Stride)
		}
		blk := hostileBlock(rng, 1+rng.Intn(4), nt, 0)
		udf, oracle := p.UDFScratch(), staltaOracle(p)
		sameCells(t, blk, 0, p.Stride, func(s *arrayudf.Stencil) float64 { poisonArena(scr); return udf(s, scr) }, oracle, staltaDirect(p), "arena")
		sameCells(t, blk, 0, p.Stride, func(s *arrayudf.Stencil) float64 { return udf(s, nil) }, oracle, staltaDirect(p), "nil-scratch")
		if p.Stride > 1 {
			first := 1 + rng.Intn(p.Stride-1)
			sameCells(t, blk, first, p.Stride, func(s *arrayudf.Stencil) float64 { return udf(s, scr) }, oracle, always, "off-grid")
		}
	}
	if folded < 40 || folded > 120 {
		t.Errorf("%d of 160 parameter sets assemble windows from partial sums: the draw no longer covers both sides", folded)
	}
}

// poisonArena borrows every float buffer on scr's free list (a cell's
// kernel leaves a handful at most), fills each to its capacity with NaN and
// releases it: a borrower that reads before it writes finds NaN. The arena
// keeps one 4 096-sample buffer, so a kernel's first borrow is poisoned too.
func poisonArena(scr *daslib.Scratch) {
	held := [][]float64{scr.Float(1 << 12)}
	for len(held) < 8 {
		held = append(held, scr.Float(1))
	}
	for _, b := range held {
		b = b[:cap(b)]
		for i := range b {
			b[i] = math.NaN()
		}
		scr.ReleaseFloat(b)
	}
}

// sweep evaluates udf over every owned channel × on-grid cell of blk on one
// fresh stencil, rows in order and each row left to right — the sequential
// apply loop.
func sweep(blk arrayudf.Block, stride int, udf func(*arrayudf.Stencil, *daslib.Scratch) float64, scr *daslib.Scratch) [][]float64 {
	s := blk.Stencil(0, 0)
	out := make([][]float64, blk.OwnedChannels())
	for ch := range out {
		for tt := 0; tt < blk.Data.Samples; tt += stride {
			s.SetPos(ch, tt)
			out[ch] = append(out[ch], udf(s, scr))
		}
	}
	return out
}

// TestSegmentMemoIsOnlyACache: what a stencil carries from cell to cell may
// save work, never change a value. One stencil visiting the cells of a block
// in random order, each of them twice, hopping between rows mid-row, and
// lending itself to the other detector in between, returns the bits of the
// sequential sweep; so do two blocks swept through one pooled Scratch.
func TestSegmentMemoIsOnlyACache(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type cell struct{ ch, i int }
	folded := map[string]int{}
	defer func() {
		if folded["localsimi"] < 10 || folded["stalta"] < 10 {
			t.Errorf("parameter sets carrying partial sums: %v of 40 each, want at least 10", folded)
		}
	}()
	for iter := 0; iter < 40; iter++ {
		simi, stalta := randomSimi(rng), randomSTALTA(rng)
		stalta.Stride = simi.Stride
		if simi.grid().partials {
			folded["localsimi"]++
		}
		if stalta.grid().partials {
			folded["stalta"]++
		}
		nt := 8*(simi.M+simi.L+simi.Stride) + rng.Intn(50)
		ghost := simi.K * rng.Intn(2)
		blk := hostileBlock(rng, 2+rng.Intn(3), nt, ghost)
		for _, d := range []struct {
			name       string
			udf, other func(*arrayudf.Stencil, *daslib.Scratch) float64
		}{
			{"localsimi", simi.UDFScratch(), stalta.UDFScratch()},
			{"stalta", stalta.UDFScratch(), simi.UDFScratch()},
		} {
			want := sweep(blk, simi.Stride, d.udf, nil)
			var cells []cell
			for ch := range want {
				for i := range want[ch] {
					cells = append(cells, cell{ch, i}, cell{ch, i})
				}
			}
			rng.Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })
			s, scr := blk.Stencil(0, 0), daslib.NewScratch()
			for n, c := range cells {
				if n%7 == 3 {
					d.other(s, scr) // the slot changes hands and comes back
				}
				s.SetPos(c.ch, c.i*simi.Stride)
				if got := d.udf(s, scr); math.Float64bits(got) != math.Float64bits(want[c.ch][c.i]) {
					t.Fatalf("%s %+v/%+v: visit %d of cell (%d,%d) = %v, sequential sweep %v", d.name, simi, stalta, n, c.ch, c.i*simi.Stride, got, want[c.ch][c.i])
				}
			}
			// Row by row, but backwards, and two rows interleaved.
			for ch := range want {
				other := (ch + 1) % len(want)
				for i := len(want[ch]) - 1; i >= 0; i-- {
					s.SetPos(ch, i*simi.Stride)
					got := d.udf(s, scr)
					s.SetPos(other, min(i, len(want[other])-1)*simi.Stride)
					d.udf(s, scr)
					if math.Float64bits(got) != math.Float64bits(want[ch][i]) {
						t.Fatalf("%s: backwards cell (%d,%d) = %v, sequential sweep %v", d.name, ch, i*simi.Stride, got, want[ch][i])
					}
				}
			}
			// A second block through the same pooled arena.
			blk2 := hostileBlock(rng, len(want), nt+simi.Stride, ghost)
			pooled := daslib.GetScratch()
			for _, b := range []arrayudf.Block{blk, blk2, blk} {
				got, ref := sweep(b, simi.Stride, d.udf, pooled), sweep(b, simi.Stride, d.udf, nil)
				for ch := range ref {
					for i := range ref[ch] {
						if math.Float64bits(got[ch][i]) != math.Float64bits(ref[ch][i]) {
							t.Fatalf("%s: pooled scratch, cell (%d,%d) = %v, fresh %v", d.name, ch, i*simi.Stride, got[ch][i], ref[ch][i])
						}
					}
				}
			}
			daslib.PutScratch(pooled)
		}
	}
}

// TestSegmentGridChoosesPartials pins which geometries assemble windows
// from partial sums — the 250 Hz defaults and their neighbours do; a stride
// of a few samples (down to the paper's per-sample map), where folding a
// window's many records costs more than scanning it, and a stride of a whole
// window, where there is nothing to share, do not — and that a ring which
// would outgrow maxRingFloats is never built: those cells leave the memo
// slot alone and match the oracle bit for bit.
func TestSegmentGridChoosesPartials(t *testing.T) {
	for _, tc := range []struct {
		stride   int
		partials bool
	}{{1, false}, {2, false}, {4, false}, {5, true}, {10, true}, {25, true}, {50, true}, {100, true}, {124, false}, {125, false}, {300, false}} {
		p := paperSimi
		p.Stride = tc.stride
		if got := p.grid().partials; got != tc.partials {
			t.Errorf("local similarity at stride %d: partials = %v, want %v", tc.stride, got, tc.partials)
		}
	}
	if !paperSTALTA.grid().partials {
		t.Error("STA/LTA at the defaults should assemble its windows from partial sums")
	}

	// Worth folding (41 segments of a 801-sample window every 40 samples),
	// but 257 lags make a record of 1029 sums and the ring 64 of them.
	p := LocalSimiParams{M: 400, K: 1, L: 128, Stride: 40}
	if g := p.grid(); g.partials || g.slots*g.rec <= maxRingFloats || p.Stride+recordPerSamples*(g.off[len(g.off)-1]-g.off[0]) > 2*p.M+1 {
		t.Fatalf("%+v: grid %+v is not the over-budget case this test wants", p, g)
	}
	nt := 2*(p.M+p.L) + 1 + 3*p.Stride
	blk := hostileBlock(rand.New(rand.NewSource(19)), 2, nt, 1)
	udf, oracle := p.UDFScratch(), localSimiOracle(p)
	s, ref := blk.Stencil(0, 0), blk.Stencil(0, 0)
	for tt := 0; tt < nt; tt += p.Stride {
		s.SetPos(1, tt)
		ref.SetPos(1, tt)
		if g, w := udf(s, nil), oracle(ref); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("cell (1,%d) = %v, oracle %v", tt, g, w)
		}
	}
	if m := *s.Memo(); m != nil {
		t.Errorf("a ring over budget was built: %T", m)
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

	// What the stencil carries is the current window's segments, so its
	// size follows from the parameters and not from the length of the row.
	ringFloats := func(nt int, udf func(*arrayudf.Stencil, *daslib.Scratch) float64) int {
		long := arrayudf.Block{Data: dasf.NewArray2D(3, nt), ChLo: 1, ChHi: 2, Ghost: 1}
		s := long.Stencil(0, 0)
		for tt := 0; tt < nt; tt += 400 { // a multiple of both strides
			s.SetPos(0, tt)
			udf(s, nil)
		}
		m := (*s.Memo()).(*segMemo)
		return len(m.ring) + len(m.acc)
	}
	for name, udf := range map[string]func(*arrayudf.Stencil, *daslib.Scratch) float64{"localsimi": simi, "stalta": stalta} {
		short, long := ringFloats(4000, udf), ringFloats(64000, udf)
		if short != long || short == 0 || short > maxRingFloats {
			t.Errorf("%s: memo holds %d floats on a 4000-sample row, %d on a 64000-sample one", name, short, long)
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

// BenchmarkLocalSimiCell shows the cost per cell against the overlap of
// consecutive windows: at stride 50 (the default) and 25 every lagged
// product is shared by 2.5 and 5 windows and computed once; at 125 and 300 a
// window is one segment and at 1 it is 125 one-sample segments, the direct
// scan's arithmetic in both cases.
func BenchmarkLocalSimiCell(b *testing.B) {
	for _, stride := range []int{1, 25, 50, 125, 300} {
		p := paperSimi
		p.Stride = stride
		b.Run(fmt.Sprintf("stride=%d", stride), func(b *testing.B) { benchCells(b, stride, p.UDFScratch()) })
	}
}

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
	series, err := p.preprocess(a.Row(p.MasterChannel))
	if err != nil {
		tb.Fatal(err)
	}
	m := &Master{Series: series, Corr: daslib.PrepareXCorrMasterLags(series, len(series), p.MaxLag)}
	return arrayudf.Block{Data: a, ChLo: 0, ChHi: nch}, m
}

// TestInterferometryRowMatchesTrimmedCorrelation pins the row kernel's lag
// convention and values to the pairwise pipeline it replaces — preprocess,
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
			series, err := p.preprocess(blk.Data.Row(ch))
			if err != nil {
				t.Fatal(err)
			}
			want := TrimLags(xcorrRef(series, master.Series), len(series), len(master.Series), parts.RowLen)
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
	got := make([]float64, sp.StackedRowLen())
	sp.StackedUDFIntoContext(context.Background(), sm)(blk.Stencil(1, 0), got, nil)
	want := make([]float64, sp.StackedRowLen())
	hop := sp.WindowSamples - sp.OverlapSamples
	for w := range sm.Corrs {
		series, err := sp.preprocess(blk.Data.Row(1)[w*hop : w*hop+sp.WindowSamples])
		if err != nil {
			t.Fatal(err)
		}
		mw, err := sp.preprocess(blk.Data.Row(0)[w*hop : w*hop+sp.WindowSamples])
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range TrimLags(xcorrRef(series, mw), len(series), len(mw), len(want)) {
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
