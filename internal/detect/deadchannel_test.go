package detect

import (
	"math"
	"testing"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
)

// TestPipelinesSurviveDeadChannels: real arrays always contain all-zero
// channels; neither analysis may emit NaN or Inf for them or their
// neighbors.
func TestPipelinesSurviveDeadChannels(t *testing.T) {
	cfg := dasgen.Config{
		Channels: 12, SampleRate: 50, FileSeconds: 10, NumFiles: 1,
		Seed: 19, DeadChannels: []int{0, 5, 6},
	}
	data, err := dasgen.GenerateFileArray(cfg, dasgen.Fig10Events(cfg), 0)
	if err != nil {
		t.Fatal(err)
	}
	blk := arrayudf.Block{Data: data, ChLo: 0, ChHi: cfg.Channels}

	// Local similarity over every channel including dead ones.
	simi := LocalSimiParams{M: 10, K: 1, L: 3}
	udf := simi.UDF()
	for ch := 0; ch < cfg.Channels; ch++ {
		for _, tt := range []int{0, 100, 250, 499} {
			got := udf(blk.Stencil(ch, tt))
			if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 || got > 1+1e-9 {
				t.Fatalf("local similarity (%d,%d) = %g", ch, tt, got)
			}
		}
	}

	// Interferometry with a LIVE master: dead channels correlate to ~0.
	p := InterferometryParams{
		Rate: cfg.SampleRate, FilterOrder: 3, CutoffHz: 8,
		ResampleP: 1, ResampleQ: 2, MasterChannel: 3, MaxLag: 20,
	}
	master, err := p.Preprocess(data.Row(3))
	if err != nil {
		t.Fatal(err)
	}
	rowLen := p.RowLen(data.Samples)
	for ch := 0; ch < cfg.Channels; ch++ {
		series, err := p.Preprocess(data.Row(ch))
		if err != nil {
			t.Fatalf("channel %d preprocess: %v", ch, err)
		}
		corr := TrimLags(xcorrFinite(t, series, master), len(series), len(master), rowLen)
		for i, v := range corr {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("channel %d lag %d is %g", ch, i, v)
			}
		}
	}

	// Interferometry with a DEAD master must error or stay finite, never
	// NaN — the ScalarUDF path returns 0 for zero-energy inputs.
	pd := p
	pd.MasterChannel = 5
	deadMaster, err := pd.Preprocess(data.Row(5))
	if err != nil {
		t.Fatal(err)
	}
	sUDF := pd.ScalarUDF(&Master{Series: deadMaster})
	got := sUDF(blk.Stencil(2, 0))
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("dead-master scalar similarity = %g", got)
	}
}

// xcorrFinite runs the workload's correlation and fails the test on
// non-finite energy normalization instead of silently passing NaNs on.
func xcorrFinite(t *testing.T, a, b []float64) []float64 {
	t.Helper()
	out := xcorrRef(a, b)
	for _, v := range out {
		if math.IsNaN(v) {
			t.Fatal("xcorr produced NaN")
		}
	}
	return out
}

// TestFindEventsOnDeadArray: an all-dead similarity map yields no events
// and no panics.
func TestFindEventsOnDeadArray(t *testing.T) {
	sim := dasf.NewArray2D(8, 100) // all zeros
	if got := FindEvents(sim, 1.5); len(got) != 0 {
		t.Errorf("dead map produced %d events", len(got))
	}
	if got := FindEventsBanded(sim, 1.5, 4); len(got) != 0 {
		t.Errorf("banded dead map produced %d events", len(got))
	}
}
