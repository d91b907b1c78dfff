package dass

import (
	"fmt"
	"path/filepath"
	"testing"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/mpi"
	"dassa/internal/omp"
)

// benchView generates a series once per benchmark and opens a VCA view.
func benchView(b *testing.B, channels, files int) *View {
	b.Helper()
	dir := b.TempDir()
	cfg := dasgen.Config{
		Channels: channels, SampleRate: 100, FileSeconds: 2, NumFiles: files,
		Seed: 1, DType: dasf.Float32,
	}
	if _, err := dasgen.Generate(dir, cfg, nil); err != nil {
		b.Fatal(err)
	}
	cat, err := ScanDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	vcaPath := filepath.Join(dir, "v.dasf")
	if _, err := CreateVCA(vcaPath, cat.Entries()); err != nil {
		b.Fatal(err)
	}
	v, err := OpenView(vcaPath)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

func BenchmarkScanDir(b *testing.B) {
	dir := b.TempDir()
	cfg := dasgen.Config{
		Channels: 32, SampleRate: 100, FileSeconds: 1, NumFiles: 32,
		Seed: 1, DType: dasf.Float32,
	}
	if _, err := dasgen.Generate(dir, cfg, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScanDir(dir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialVCARead(b *testing.B) {
	v := benchView(b, 64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := v.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchParallelRead(b *testing.B, read func(c *mpi.Comm, v *View) (Block, int64)) {
	v := benchView(b, 64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpi.Run(4, func(c *mpi.Comm) { read(c, v) }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCollectivePerFile(b *testing.B) {
	benchParallelRead(b, func(c *mpi.Comm, v *View) (Block, int64) {
		blk, _ := ReadCollectivePerFile(c, v)
		return blk, 0
	})
}

func BenchmarkReadCommAvoiding(b *testing.B) {
	benchParallelRead(b, func(c *mpi.Comm, v *View) (Block, int64) {
		blk, _ := ReadCommAvoiding(c, v)
		return blk, 0
	})
}

func BenchmarkReadIndependent(b *testing.B) {
	benchParallelRead(b, func(c *mpi.Comm, v *View) (Block, int64) {
		blk, _ := ReadIndependent(c, v)
		return blk, 0
	})
}

func BenchmarkCreateVCA(b *testing.B) {
	dir := b.TempDir()
	cfg := dasgen.Config{
		Channels: 32, SampleRate: 100, FileSeconds: 1, NumFiles: 16,
		Seed: 1, DType: dasf.Float32,
	}
	if _, err := dasgen.Generate(dir, cfg, nil); err != nil {
		b.Fatal(err)
	}
	cat, err := ScanDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CreateVCA(filepath.Join(dir, "bench.vca.dasf"), cat.Entries()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewRead is the engine's block load on the benchmark's batch
// record (32 float32 members × 128 channels × 2000 samples, a 65.5 MB
// block) at the team sizes the 1-core reference and the 1×2 engine use:
// MB/s of decoded block, and B/op against that block size.
func BenchmarkViewRead(b *testing.B) {
	lengths := make([]int, 32)
	for i := range lengths {
		lengths[i] = 2000
	}
	v := contiguousView(b, 128, lengths)
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("team=%d", threads), func(b *testing.B) {
			tv := v.WithTeam(omp.NewTeam(threads))
			b.SetBytes(128 * 2000 * 32 * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := tv.Read(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
