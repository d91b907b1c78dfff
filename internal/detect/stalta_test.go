package detect

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
)

func TestSTALTAValidation(t *testing.T) {
	if err := (STALTAParams{STASamples: 10, LTASamples: 100}).Validate(1, 100); err != nil {
		t.Error(err)
	}
	for _, bad := range []STALTAParams{
		{STASamples: 0, LTASamples: 10},
		{STASamples: 10, LTASamples: 10},
		{STASamples: 20, LTASamples: 10},
		// The view bounds the long window and the stride.
		{STASamples: 10, LTASamples: 1001},
		{STASamples: 10, LTASamples: 3000000000},
		{STASamples: 3000000000, LTASamples: 3000000001},
		{STASamples: 10, LTASamples: 100, Stride: 1001},
		{STASamples: 10, LTASamples: 100, Stride: math.MaxInt},
	} {
		if err := bad.Validate(4, 1000); !errors.Is(err, ErrBadParams) {
			t.Errorf("%+v should be invalid, got %v", bad, err)
		}
	}
}

// ratioSeries sweeps the trigger over one channel the way the engine does:
// out[i] is the ratio at sample i·stride.
func ratioSeries(p STALTAParams, x []float64) []float64 {
	blk := arrayudf.Block{Data: &dasf.Array2D{Channels: 1, Samples: len(x), Data: x}, ChLo: 0, ChHi: 1}
	return sweep(blk, max(p.Stride, 1), p.UDFScratch(), nil)[0]
}

func TestSTALTARatioTriggersOnBurst(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 2000
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.1 * rng.NormFloat64()
	}
	// A strong burst at samples 1200..1260.
	for i := 1200; i < 1260; i++ {
		x[i] += 3 * math.Sin(2*math.Pi*float64(i)/20)
	}
	p := STALTAParams{STASamples: 20, LTASamples: 400}
	ratios := ratioSeries(p, x)
	// Quiet section stays near 1, burst onset spikes high.
	for i := 600; i < 1100; i++ {
		if ratios[i] > 4 {
			t.Fatalf("quiet section triggered at %d: %g", i, ratios[i])
		}
	}
	peak := 0.0
	for i := 1200; i < 1280; i++ {
		peak = math.Max(peak, ratios[i])
	}
	if peak < 8 {
		t.Errorf("burst peak ratio = %g, want ≫ 1", peak)
	}
}

// TestSTALTAVsLocalSimilarityFalseTriggers reproduces the reason ref [18]
// (and therefore the paper) prefers local similarity on dense arrays:
// on a record whose "events" are incoherent single-channel noise bursts,
// STA/LTA fires while local similarity stays quiet; on a coherent
// earthquake both fire.
func TestSTALTAVsLocalSimilarityFalseTriggers(t *testing.T) {
	cfg := dasgen.Config{
		Channels: 16, SampleRate: 50, FileSeconds: 20, NumFiles: 1,
		Seed: 8, NoiseAmp: 0.3,
	}
	quiet, err := dasgen.GenerateFileArray(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Single-channel incoherent bursts (instrument glitches / local noise):
	// strong energy on channel 7 only.
	rng := rand.New(rand.NewSource(10))
	for b := 0; b < 5; b++ {
		start := 100 + b*150
		for i := start; i < start+30; i++ {
			quiet.Set(7, i, quiet.At(7, i)+4*rng.NormFloat64())
		}
	}
	blk := arrayudf.Block{Data: quiet, ChLo: 0, ChHi: cfg.Channels}

	stalta := STALTAParams{STASamples: 15, LTASamples: 200}
	ratios := ratioSeries(stalta, quiet.Row(7))
	if MaxRatio(ratios) < 5 {
		t.Fatalf("STA/LTA should fire on the bursts: max ratio %g", MaxRatio(ratios))
	}

	simi := LocalSimiParams{M: 15, K: 1, L: 3}
	udf := nilArena(simi.UDFScratch())
	// At the burst times, the burst channel's local similarity stays low
	// (its neighbors don't carry the burst).
	for b := 0; b < 5; b++ {
		at := 100 + b*150 + 15
		if got := udf(blk.Stencil(7, at)); got > 0.75 {
			t.Errorf("local similarity fired on an incoherent burst: %g at %d", got, at)
		}
	}

	// A coherent earthquake: both methods respond.
	eqCfg := cfg
	eq := dasgen.Earthquake{OriginSec: 10, EpicenterChannel: 8, PVel: 200, SVel: 60, Amp: 8, FreqHz: 6, DurSec: 1}
	shaken, err := dasgen.GenerateFileArray(eqCfg, []dasgen.Event{eq}, 0)
	if err != nil {
		t.Fatal(err)
	}
	blk2 := arrayudf.Block{Data: shaken, ChLo: 0, ChHi: cfg.Channels}
	arrival := int(10.1 * cfg.SampleRate)
	if got := udf(blk2.Stencil(8, arrival)); got < 0.9 {
		t.Errorf("local similarity missed the earthquake: %g", got)
	}
	if got := MaxRatio(ratioSeries(stalta, shaken.Row(8))); got < 5 {
		t.Errorf("STA/LTA missed the earthquake: %g", got)
	}
}

func TestTriggerRate(t *testing.T) {
	r := []float64{1, 2, 6, 1, 9}
	if got := TriggerRate(r, 5); got != 0.4 {
		t.Errorf("TriggerRate = %g, want 0.4", got)
	}
	if TriggerRate(nil, 5) != 0 {
		t.Error("empty rate should be 0")
	}
	if MaxRatio(nil) != 0 {
		t.Error("empty max should be 0")
	}
}
