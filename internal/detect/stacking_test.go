package detect

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
)

func stackingParams() StackingParams {
	return StackingParams{
		InterferometryParams: InterferometryParams{
			Rate: 100, FilterOrder: 3, CutoffHz: 20,
			ResampleP: 1, ResampleQ: 2, MasterChannel: 0, MaxLag: 30,
		},
		WindowSamples:  256,
		OverlapSamples: 64,
	}
}

func TestStackingValidation(t *testing.T) {
	good := stackingParams()
	if err := good.Validate(2, 256); err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(2, 255); !errors.Is(err, ErrBadParams) {
		t.Errorf("a record shorter than one window should fail: %v", err)
	}
	if err := good.Validate(0, 256); !errors.Is(err, ErrBadParams) {
		t.Errorf("a master channel outside the view should fail: %v", err)
	}
	bad := good
	bad.WindowSamples = 4
	if err := bad.Validate(2, 1000); !errors.Is(err, ErrBadParams) {
		t.Errorf("tiny window should fail: %v", err)
	}
	bad = good
	bad.OverlapSamples = 256
	if err := bad.Validate(2, 1000); !errors.Is(err, ErrBadParams) {
		t.Errorf("overlap ≥ window should fail: %v", err)
	}
	bad = good
	bad.Rate = 0
	if err := bad.Validate(2, 1000); !errors.Is(err, ErrBadParams) {
		t.Errorf("bad base params should fail: %v", err)
	}
}

func TestNumWindows(t *testing.T) {
	p := stackingParams() // window 256, hop 192
	cases := map[int]int{255: 0, 256: 1, 447: 1, 448: 2, 640: 3, 2048: 10}
	for nt, want := range cases {
		if got := p.NumWindows(nt); got != want {
			t.Errorf("NumWindows(%d) = %d, want %d", nt, got, want)
		}
	}
}

// TestStackingSuppressesIncoherentNoise is the physics of stacking: a
// channel carrying the master's signal plus strong independent noise shows
// a cleaner correlation peak after stacking many windows than any single
// window gives.
func TestStackingSuppressesIncoherentNoise(t *testing.T) {
	p := stackingParams()
	const nt = 256 * 24
	rng := rand.New(rand.NewSource(3))
	master := make([]float64, nt)
	prev := 0.0
	for i := range master {
		prev = 0.8*prev + rng.NormFloat64()
		master[i] = prev
	}
	const shift = 8 // raw samples → 4 resampled lags
	noisy := make([]float64, nt)
	for i := range noisy {
		src := 0.0
		if i >= shift {
			src = master[i-shift]
		}
		noisy[i] = src + 2.5*rng.NormFloat64() // SNR well below 1
	}

	sm, err := p.prepareStackedMaster(master)
	if err != nil {
		t.Fatal(err)
	}
	data := dasf.NewArray2D(2, nt)
	copy(data.Row(0), master)
	copy(data.Row(1), noisy)
	blk := arrayudf.Block{Data: data, ChLo: 0, ChHi: 2}
	rowLen := p.StackedRowLen()
	// stackedRow evaluates one channel's row with no arena.
	stackedRow := func(p StackingParams, sm *StackedMaster, ch int) []float64 {
		row := make([]float64, rowLen)
		p.StackedUDFIntoContext(context.Background(), sm)(blk.Stencil(ch, 0), row, nil)
		return row
	}
	stacked := stackedRow(p, sm, 1)
	// The peak must sit at the planted lag (+shift/2 after ÷2 resampling).
	best, bestI := math.Inf(-1), 0
	for i, v := range stacked {
		if v > best {
			best, bestI = v, i
		}
	}
	wantLag := shift / 2
	if got := bestI - rowLen/2; got < wantLag-1 || got > wantLag+1 {
		t.Errorf("stacked peak at lag %d, want ≈%d", got, wantLag)
	}
	// Stacked peak-to-background contrast beats a single window's.
	single := StackingParams{
		InterferometryParams: p.InterferometryParams,
		WindowSamples:        p.WindowSamples,
		OverlapSamples:       p.OverlapSamples,
	}
	smOne := &StackedMaster{Corrs: sm.Corrs[:1]}
	oneWin := stackedRow(single, smOne, 1)
	contrast := func(row []float64, peakI int) float64 {
		var bg float64
		var n int
		for i, v := range row {
			if i < peakI-3 || i > peakI+3 {
				bg += v * v
				n++
			}
		}
		return row[peakI] / math.Sqrt(bg/float64(n))
	}
	cStack := contrast(stacked, bestI)
	bestOne, bestOneI := math.Inf(-1), 0
	for i, v := range oneWin {
		if v > bestOne {
			bestOne, bestOneI = v, i
		}
	}
	cOne := contrast(oneWin, bestOneI)
	if cStack <= cOne {
		t.Errorf("stacking contrast %.2f should beat single-window %.2f", cStack, cOne)
	}
	// The master's own stacked correlation peaks at zero lag with value ≈1.
	self := stackedRow(p, sm, 0)
	if d := math.Abs(self[rowLen/2] - 1); d > 1e-6 {
		t.Errorf("stacked self correlation = %g", self[rowLen/2])
	}
}

func TestStackedMasterBytes(t *testing.T) {
	p := stackingParams()
	raw := make([]float64, 256*4)
	sm, err := p.prepareStackedMaster(raw)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Bytes() <= 0 {
		t.Error("Bytes should be positive")
	}
	if _, err := p.prepareStackedMaster(make([]float64, 10)); err == nil {
		t.Error("record shorter than a window should fail")
	}
}
