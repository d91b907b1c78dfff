package omp

import "testing"

func BenchmarkForStatic(b *testing.B) {
	team := NewTeam(4)
	sink := make([]float64, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		team.For(len(sink), func(j int) { sink[j] = float64(j) * 1.5 })
	}
}

func BenchmarkForAppendPrefixMerge(b *testing.B) {
	team := NewTeam(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForAppend(team, 10000, func(j int, out *[]float64) {
			*out = append(*out, float64(j))
		})
	}
}

func BenchmarkForAppendLocked(b *testing.B) {
	team := NewTeam(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForAppendLocked(team, 10000, func(j int, out *[]float64) {
			*out = append(*out, float64(j))
		})
	}
}
