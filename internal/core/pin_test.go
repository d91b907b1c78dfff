package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"testing"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/detect"
)

// TestInterferometryOutputPinned runs Algorithm 3 at its registry defaults
// (order-3 lowpass at rate/8, resample 1/2, ±128 lags against channel 0)
// over a small seeded record, at one and two cores, clean and with its
// middle member gone under FailDegrade (a NaN gap the row front reads as
// zero), each run on scratch arenas poisoned with NaN, and checks the
// FNV-64a hash of every output bit against the value the reverse-based
// filter loop, the separate NaN copy and the re-slicing FFT stages
// produced. The row kernels promise the same
// operations in the same order, so the hash must not move.
//
// The golden values hold on amd64 only: the Go compiler may fuse a
// multiply and an add into one FMA instruction on arm64, ppc64le, s390x
// and riscv64, which rounds once instead of twice and changes low bits.
func TestInterferometryOutputPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are amd64 bits; %s may fuse multiply-adds", runtime.GOARCH)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name string
		gap  bool
		want uint64
	}{
		{"clean", false, 0x67ec55805ab2b7f4},
		{"gap", true, 0xc2958ef55e89c4bc},
	} {
		dir := t.TempDir()
		cfg := dasgen.Config{Channels: 8, SampleRate: 250, FileSeconds: 4, NumFiles: 3, Seed: 42, DType: dasf.Float32}
		if _, err := dasgen.Generate(dir, cfg, dasgen.Fig10Events(cfg)); err != nil {
			t.Fatal(err)
		}
		cat, err := dass.ScanDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		v, err := dass.ViewOver(cat.Entries())
		if err != nil {
			t.Fatal(err)
		}
		if tc.gap {
			if err := os.Remove(cat.Entries()[1].Path); err != nil {
				t.Fatal(err)
			}
		}
		for _, cores := range []int{1, 2} {
			poisonScratchPool()
			fw := New(Config{Nodes: 1, CoresPerNode: cores, FailPolicy: dass.FailDegrade})
			out, rep, err := fw.Run(v, detect.DefaultInterferometry(cfg.SampleRate), "")
			if err != nil {
				t.Fatal(err)
			}
			if gapped := rep.Quality != nil && len(rep.Quality.Gaps) > 0; gapped != tc.gap {
				t.Fatalf("%s, %d cores: read reported gaps %v", tc.name, cores, gapped)
			}
			for i, x := range out.Data {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("%s, %d cores: output %d is %v", tc.name, cores, i, x)
				}
			}
			if out.Channels != cfg.Channels || out.Samples != 257 {
				t.Fatalf("%s, %d cores: output %d×%d, want %d×257", tc.name, cores, out.Channels, out.Samples, cfg.Channels)
			}
			if got := hashBits(out.Data); got != tc.want {
				t.Errorf("%s, %d cores: output hash %#016x, want %#016x", tc.name, cores, got, tc.want)
			}
		}
	}
}

// poisonScratchPool leaves four arenas in daslib's pool whose float buffers
// all hold NaN, one of them 8 192 samples long. The engine's threads check
// their arenas out of that pool, so a row kernel that read a borrowed buffer
// before writing it would move the hash. Run with GOMAXPROCS 1 the pool
// hands the engine exactly these arenas; with more it may make fresh ones.
func poisonScratchPool() {
	arenas := make([]*daslib.Scratch, 4)
	for i := range arenas {
		s := daslib.GetScratch()
		held := [][]float64{s.Float(1 << 13)}
		for len(held) < 12 {
			held = append(held, s.Float(1))
		}
		for _, b := range held {
			b = b[:cap(b)]
			for j := range b {
				b[j] = math.NaN()
			}
			s.ReleaseFloat(b)
		}
		arenas[i] = s
	}
	for _, s := range arenas {
		daslib.PutScratch(s)
	}
}

// hashBits is the FNV-64a hash of the values' little-endian bit patterns.
func hashBits(data []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}
