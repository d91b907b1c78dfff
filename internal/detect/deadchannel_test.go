package detect

import (
	"math"
	"testing"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/daslib"
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
	udf := nilArena(simi.UDFScratch())
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
	master, err := p.preprocess(data.Row(3))
	if err != nil {
		t.Fatal(err)
	}
	rowLen := p.RowLen(data.Samples)
	for ch := 0; ch < cfg.Channels; ch++ {
		series, err := p.preprocess(data.Row(ch))
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

	// Interferometry with a DEAD master must stay finite, never NaN — a
	// zero-energy series correlates to 0 — through the row the engine runs.
	deadMaster, err := p.preprocess(data.Row(5))
	if err != nil {
		t.Fatal(err)
	}
	dead := &Master{Series: deadMaster, Corr: daslib.PrepareXCorrMasterLags(deadMaster, len(deadMaster), p.MaxLag)}
	row := make([]float64, rowLen)
	p.Workload(data.Samples).UDFInto(blk.Stencil(2, 0), dead, row, nil)
	for i, v := range row {
		if v != 0 {
			t.Fatalf("dead-master correlation lag %d = %g, want 0", i, v)
		}
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
