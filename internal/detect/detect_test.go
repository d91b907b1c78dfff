package detect

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/mpi"
)

func TestLocalSimiParamsValidate(t *testing.T) {
	good := LocalSimiParams{M: 10, K: 1, L: 5}
	if err := good.Validate(2, 31); err != nil {
		t.Error(err)
	}
	for _, bad := range []LocalSimiParams{
		{M: 0, K: 1, L: 1}, {M: 5, K: 0, L: 1}, {M: 5, K: 1, L: -1},
	} {
		if err := bad.Validate(8, 1000); !errors.Is(err, ErrBadParams) {
			t.Errorf("%+v should be invalid, got %v", bad, err)
		}
	}
	// The view bounds what the parameters may size: the lag scan fits the
	// time extent, a neighbour exists, the stride leaves a cell — for the
	// values that used to reach a borrow unchecked, with no sum wrapping.
	for _, tc := range []struct {
		p       LocalSimiParams
		nch, nt int
	}{
		{good, 2, 30},
		{good, 1, 1000},
		{good, 8, 0},
		{LocalSimiParams{M: 3000000000, K: 1, L: 4}, 8, 4000},
		{LocalSimiParams{M: math.MaxInt, K: 1, L: math.MaxInt}, 8, 4000},
		{LocalSimiParams{M: 10, K: 1, L: math.MaxInt}, 8, 4000},
		{LocalSimiParams{M: 10, K: math.MaxInt, L: 5}, 8, 4000},
		{LocalSimiParams{M: 10, K: 1, L: 5, Stride: 4001}, 8, 4000},
		{LocalSimiParams{M: 10, K: 1, L: 5, Stride: math.MaxInt}, 8, 4000},
	} {
		if err := tc.p.Validate(tc.nch, tc.nt); !errors.Is(err, ErrBadParams) {
			t.Errorf("%+v on %d×%d should be invalid, got %v", tc.p, tc.nch, tc.nt, err)
		}
	}
	if got := good.Spec().GhostChannels; got != 1 {
		t.Errorf("Spec ghost = %d, want K", got)
	}
}

// nilArena adapts a scratch-aware point UDF to the serial arrayudf.Apply
// signature: every cell allocates what it needs.
func nilArena(udf func(*arrayudf.Stencil, *daslib.Scratch) float64) arrayudf.PointUDF {
	return func(s *arrayudf.Stencil) float64 { return udf(s, nil) }
}

func TestLocalSimiRangeAndCoherence(t *testing.T) {
	// On an array where neighbors carry the same signal, similarity ≈ 1; on
	// independent noise it is well below 1.
	const nch, nt = 8, 400
	coherent := dasf.NewArray2D(nch, nt)
	for c := 0; c < nch; c++ {
		for tt := 0; tt < nt; tt++ {
			coherent.Set(c, tt, math.Sin(2*math.Pi*float64(tt)/25))
		}
	}
	p := LocalSimiParams{M: 20, K: 1, L: 5}
	udf := nilArena(p.UDFScratch())
	blk := arrayudf.Block{Data: coherent, ChLo: 0, ChHi: nch}
	s := blk.Stencil(4, 200)
	if got := udf(s); got < 0.999 {
		t.Errorf("coherent similarity = %g, want ≈1", got)
	}
	// Independent pseudo-noise channels.
	noise := dasf.NewArray2D(nch, nt)
	state := uint64(12345)
	rnd := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(int64(state>>11))/float64(1<<52) - 1
	}
	for i := range noise.Data {
		noise.Data[i] = rnd()
	}
	blk2 := arrayudf.Block{Data: noise, ChLo: 0, ChHi: nch}
	s2 := blk2.Stencil(4, 200)
	if got := udf(s2); got > 0.8 {
		t.Errorf("noise similarity = %g, want well below 1", got)
	}
}

// runLocalSimi executes Algorithm 2 over a generated record and returns the
// similarity map.
func runLocalSimi(t *testing.T, cfg dasgen.Config, events []dasgen.Event, p LocalSimiParams, ranks int) *dasf.Array2D {
	t.Helper()
	dir := t.TempDir()
	if _, err := dasgen.Generate(dir, cfg, events); err != nil {
		t.Fatal(err)
	}
	cat, err := dass.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	vca := filepath.Join(dir, "v.dasf")
	if _, err := dass.CreateVCA(vca, cat.Entries()); err != nil {
		t.Fatal(err)
	}
	v, err := dass.OpenView(vca)
	if err != nil {
		t.Fatal(err)
	}
	nch, _ := v.Shape()
	var sim *dasf.Array2D
	_, err = mpi.Run(ranks, func(c *mpi.Comm) {
		res := arrayudf.Apply(c, v, p.Spec(), nilArena(p.UDFScratch()))
		if out := arrayudf.Gather(c, nch, res); out != nil {
			sim = out
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestLocalSimiDetectsEarthquake(t *testing.T) {
	cfg := dasgen.Config{
		Channels: 48, SampleRate: 50, FileSeconds: 4, NumFiles: 3,
		Seed: 21, NoiseAmp: 1,
	}
	quakeAt := 6.0 // seconds
	events := []dasgen.Event{dasgen.Earthquake{
		OriginSec: quakeAt, EpicenterChannel: 24, PVel: 240, SVel: 80,
		Amp: 10, FreqHz: 6, DurSec: 1.5,
	}}
	p := LocalSimiParams{M: 12, K: 1, L: 4, Stride: 10}
	sim := runLocalSimi(t, cfg, events, p, 3)

	regions := FindEvents(sim, 2)
	if len(regions) == 0 {
		t.Fatal("no events detected")
	}
	// Some region must cover the quake time (output index = sample/stride).
	quakeIdx := int(quakeAt * cfg.SampleRate / float64(p.Stride))
	found := false
	for _, r := range regions {
		if r.TLo <= quakeIdx+10 && r.THi >= quakeIdx-2 {
			found = true
			// An earthquake spans most of the array.
			if span := r.ChHi - r.ChLo; span < cfg.Channels/3 {
				t.Errorf("earthquake channel span = %d, want wide", span)
			}
		}
	}
	if !found {
		t.Errorf("no detected region covers the earthquake at index %d (regions: %+v)", quakeIdx, regions)
	}
}

func TestInterferometryParamsValidate(t *testing.T) {
	good := InterferometryParams{Rate: 100, FilterOrder: 4, CutoffHz: 10, ResampleP: 1, ResampleQ: 2, MasterChannel: 7}
	if err := good.Validate(8, 13); err != nil {
		t.Error(err)
	}
	// The view bounds the master channel and the row length.
	for _, shape := range [][2]int{{7, 13}, {0, 13}, {8, 12}, {8, 0}} {
		if err := good.Validate(shape[0], shape[1]); !errors.Is(err, ErrBadParams) {
			t.Errorf("%+v accepted on a %d×%d view: %v", good, shape[0], shape[1], err)
		}
	}
	bads := []InterferometryParams{
		{Rate: 0, FilterOrder: 4, CutoffHz: 10, ResampleP: 1, ResampleQ: 2},
		{Rate: 100, FilterOrder: 0, CutoffHz: 10, ResampleP: 1, ResampleQ: 2},
		{Rate: 100, FilterOrder: 4, CutoffHz: 60, ResampleP: 1, ResampleQ: 2}, // ≥ Nyquist
		{Rate: 100, FilterOrder: 4, CutoffHz: 10, ResampleP: 0, ResampleQ: 2},
		{Rate: 100, FilterOrder: 4, CutoffHz: 10, ResampleP: 1, ResampleQ: 2, MasterChannel: -1},
		{Rate: 100, FilterOrder: 4, CutoffHz: 10, ResampleP: 1, ResampleQ: 2, MaxLag: -5},
	}
	for i, b := range bads {
		if err := b.Validate(8, 1000); !errors.Is(err, ErrBadParams) {
			t.Errorf("bad params %d accepted: %v", i, err)
		}
	}
}

func TestPreprocessShapes(t *testing.T) {
	p := InterferometryParams{Rate: 100, FilterOrder: 4, CutoffHz: 10, ResampleP: 1, ResampleQ: 4}
	x := make([]float64, 400)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*5*float64(i)/100) + 0.01*float64(i)
	}
	y := make([]float64, 100)
	if err := p.PreprocessInto(y, x, nil); err != nil {
		t.Fatal(err)
	}
	// The chain removes the ramp and keeps the in-band tone: zero mean, and
	// the arena changes no bit.
	var mean float64
	for _, v := range y {
		mean += v / float64(len(y))
	}
	if math.Abs(mean) > 0.05 {
		t.Errorf("preprocessed mean = %g, want ≈ 0", mean)
	}
	again, scr := make([]float64, 100), daslib.NewScratch()
	for pass := 0; pass < 2; pass++ {
		if err := p.PreprocessInto(again, x, scr); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if math.Float64bits(again[i]) != math.Float64bits(y[i]) {
				t.Fatalf("pass %d on an arena: sample %d = %v, without %v", pass, i, again[i], y[i])
			}
		}
	}
	// RowLen: full correlation 2·100-1, or trimmed.
	if got := p.RowLen(400); got != 199 {
		t.Errorf("RowLen = %d, want 199", got)
	}
	p.MaxLag = 30
	if got := p.RowLen(400); got != 61 {
		t.Errorf("trimmed RowLen = %d, want 61", got)
	}
}

func TestTrimLags(t *testing.T) {
	// na=nb=5: full length 9, zero lag at index 4.
	corr := []float64{0, 1, 2, 3, 9, 3, 2, 1, 0}
	got := TrimLags(corr, 5, 5, 5)
	want := []float64{2, 3, 9, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("TrimLags[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// rowLen larger than input: zero-padded copy.
	got = TrimLags([]float64{1, 2}, 2, 1, 4)
	if len(got) != 4 || got[0] != 1 || got[3] != 0 {
		t.Errorf("padded TrimLags = %v", got)
	}
}

func TestInterferometryRecoversLag(t *testing.T) {
	// Two channels carrying the same noise shifted by a known delay: the
	// interferometry row must peak at that lag. This is the physics the
	// pipeline exists for (empirical Green's function travel time).
	const nch, nt = 4, 2048
	const shift = 12 // samples at the resampled (÷2) rate → 24 raw samples
	raw := dasf.NewArray2D(nch, nt)
	state := uint64(7)
	rnd := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(int64(state>>11))/float64(1<<52) - 1
	}
	src := make([]float64, nt+64)
	prev := 0.0
	for i := range src {
		prev = 0.9*prev + rnd() // red noise within the filter band
		src[i] = prev
	}
	for tt := 0; tt < nt; tt++ {
		raw.Set(0, tt, src[tt])                // master
		raw.Set(1, tt, src[tt])                // zero lag
		raw.Set(2, tt, srcAt(src, tt-2*shift)) // delayed
		raw.Set(3, tt, srcAt(src, tt+2*shift)) // advanced
	}
	p := InterferometryParams{
		Rate: 100, FilterOrder: 4, CutoffHz: 20,
		ResampleP: 1, ResampleQ: 2, MasterChannel: 0, MaxLag: 40,
	}
	master, err := p.preprocess(raw.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	rowLen := p.RowLen(nt)
	peakLag := func(ch int) int {
		series, err := p.preprocess(raw.Row(ch))
		if err != nil {
			t.Fatal(err)
		}
		corr := TrimLags(xcorrRef(series, master), len(series), len(master), rowLen)
		best, bestI := math.Inf(-1), 0
		for i, v := range corr {
			if v > best {
				best, bestI = v, i
			}
		}
		return bestI - rowLen/2
	}
	// Convention: XCorr(channel, master) peaks at +shift when the channel
	// is DELAYED relative to the master (the wave arrived there later).
	if lag := peakLag(1); lag != 0 {
		t.Errorf("identical channel peak lag = %d, want 0", lag)
	}
	if lag := peakLag(2); abs(lag-shift) > 1 {
		t.Errorf("delayed channel peak lag = %d, want ≈ %d", lag, shift)
	}
	if lag := peakLag(3); abs(lag-(-shift)) > 1 {
		t.Errorf("advanced channel peak lag = %d, want ≈ %d", lag, -shift)
	}
}

func srcAt(src []float64, i int) float64 {
	if i < 0 {
		return 0
	}
	if i >= len(src) {
		return 0
	}
	return src[i]
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// xcorrRef is the pairwise full-length normalised correlation the row
// kernel's banded master is checked against.
func xcorrRef(a, b []float64) []float64 {
	out := make([]float64, daslib.XCorrLen(len(a), len(b)))
	daslib.XCorrNormalizedInto(out, a, b, nil)
	return out
}

func TestFindEventsEmptyAndFlat(t *testing.T) {
	if got := FindEvents(dasf.NewArray2D(0, 0), 2); got != nil {
		t.Error("empty map should yield no events")
	}
	flat := dasf.NewArray2D(4, 100)
	for i := range flat.Data {
		flat.Data[i] = 0.5
	}
	if got := FindEvents(flat, 2); len(got) != 0 {
		t.Errorf("flat map yielded %d events", len(got))
	}
}

func TestFindEventsLocatesHotInterval(t *testing.T) {
	sim := dasf.NewArray2D(10, 200)
	for i := range sim.Data {
		sim.Data[i] = 0.2
	}
	// Hot block: channels 3..6, times 80..100.
	for c := 3; c <= 6; c++ {
		for tt := 80; tt < 100; tt++ {
			sim.Set(c, tt, 0.95)
		}
	}
	regions := FindEvents(sim, 2)
	if len(regions) != 1 {
		t.Fatalf("found %d regions, want 1", len(regions))
	}
	r := regions[0]
	if r.TLo < 75 || r.TLo > 85 || r.THi < 95 || r.THi > 105 {
		t.Errorf("region time [%d,%d), want ≈[80,100)", r.TLo, r.THi)
	}
	if r.ChLo > 3 || r.ChHi < 7 {
		t.Errorf("region channels [%d,%d), want to cover [3,7)", r.ChLo, r.ChHi)
	}
	if r.Peak < 0.4 {
		t.Errorf("region peak = %g", r.Peak)
	}
}
