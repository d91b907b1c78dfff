package haee

import (
	"testing"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/daslib"
	"dassa/internal/omp"
)

func benchBlock(channels, samples int) arrayudf.Block {
	a := dasf.NewArray2D(channels, samples)
	for i := range a.Data {
		a.Data[i] = float64(i%97) * 0.25
	}
	return arrayudf.Block{Data: a, ChLo: 0, ChHi: channels}
}

func BenchmarkApplyMTMovingAverage(b *testing.B) {
	blk := benchBlock(32, 2000)
	team := omp.NewTeam(4)
	udf := func(s *arrayudf.Stencil, _ *daslib.Scratch) float64 {
		return (s.At(-1, 0) + s.Value() + s.At(1, 0)) / 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplyMTScratch(team, blk, arrayudf.Spec{}, 2000, udf)
	}
}

func BenchmarkApplyMTLocalSimiWindow(b *testing.B) {
	blk := benchBlock(16, 1000)
	team := omp.NewTeam(4)
	udf := func(s *arrayudf.Stencil, scr *daslib.Scratch) float64 {
		var edge []float64
		if t := s.T(); t < 8 || t+8 >= s.Samples() {
			edge = scr.Float(17)
		}
		var sum float64
		for _, v := range s.Span(edge, -8, 8, 0) {
			sum += v
		}
		scr.ReleaseFloat(edge)
		return sum
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplyMTScratch(team, blk, arrayudf.Spec{TimeStride: 10}, 1000, udf)
	}
}

func BenchmarkApplyRowsInto(b *testing.B) {
	blk := benchBlock(64, 1000)
	team := omp.NewTeam(4)
	udf := func(s *arrayudf.Stencil, dst []float64, _ *daslib.Scratch) {
		row := s.Row(0)
		for i := range dst {
			dst[i] = row[i*32]
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplyRowsInto(team, blk, 16, udf)
	}
}

func BenchmarkSuggestLayout(b *testing.B) {
	in := tunerInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SuggestLayout(in); err != nil {
			b.Fatal(err)
		}
	}
}
