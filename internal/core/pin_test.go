package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/detect"
)

// opPin is one registered op's golden output over TestOpOutputsPinned's
// record at its registry defaults: the FNV-64a hash of every output bit,
// clean and with the middle member gone under FailDegrade, and the bound to
// which the output agrees with the op's direct-form oracle. The hash says that an answer changed;
// the bound is what a stated answer change is held to.
type opPin struct {
	clean, gap uint64
	bound      float64
	oracle     func(p detect.Params, rec *dasf.Array2D) []float64
}

// opPins covers every registered op. An answer change moves a hash here, and
// the change that moves it says old → new and why.
var opPins = map[string]opPin{
	// Windows assembled from per-segment partial sums add the per-lag
	// oracle's products in another order.
	"localsimi": {0xd39e5653cb41cd9e, 0xb4f7b250cbe31758, 1e-12, localSimiDirect},
	// The normalised lags of an FFT correlation against a time-domain sum.
	// The folded decimator (exact zero taps, pairs summed) moved both hashes
	// from clean 0x67ec55805ab2b7f4, gap 0xc2958ef55e89c4bc (interferometry)
	// and clean 0x3d48bb77bda261db, gap 0x34ba599a2ff94795 (stacked).
	"interferometry": {0xb2328ec1a8b64de1, 0x0e58537ae562d9ff, 1e-12, interferometryDirect},
	"stacked":        {0x6efc5ab4648dddaf, 0x6214c327cb2a65b4, 1e-12, stackedDirect},
	// Window energies from running partial sums against a sum per cell.
	"stalta": {0x125372bb466c300f, 0x3fa1ba761988862e, 1e-12, staltaDirect},
}

// TestOpOutputsPinned runs every registered op at its registry defaults over
// a small seeded record (8 channels × 3 000 samples at 250 Hz, three
// members), clean and with its middle member gone under FailDegrade (a NaN
// gap), at one and two cores on scratch arenas poisoned with NaN, and
// through RunCells over a seeded kept rectangle of rows × cells (a row op
// keeps its whole rows).
// Every run must give the same bits, whose FNV-64a hash is pinned in
// opPins, and the output must agree with the op's direct-form oracle at the
// pin's bound. A registered op without a pin fails.
//
// The golden values hold on amd64 only: the Go compiler may fuse a
// multiply and an add into one FMA instruction on arm64, ppc64le, s390x
// and riscv64, which rounds once instead of twice and changes low bits.
func TestOpOutputsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are amd64 bits; %s may fuse multiply-adds", runtime.GOARCH)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rate = 250
	rng := rand.New(rand.NewSource(46))
	for _, gap := range []bool{false, true} {
		dir := t.TempDir()
		cfg := dasgen.Config{Channels: 8, SampleRate: rate, FileSeconds: 4, NumFiles: 3, Seed: 42, DType: dasf.Float32}
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
		if gap {
			if err := os.Remove(cat.Entries()[1].Path); err != nil {
				t.Fatal(err)
			}
		}
		rec, _, _, err := v.ReadPolicy(dass.FailDegrade)
		if err != nil {
			t.Fatal(err)
		}
		nch, nt := v.Shape()
		for _, op := range detect.Ops() {
			pin, ok := opPins[op.Name]
			if !ok {
				t.Errorf("op %q is registered without an output pin", op.Name)
				continue
			}
			want := pin.clean
			if gap {
				want = pin.gap
			}
			p := op.Default(rate, nt)
			outLen := p.Workload(nt).OutSamples(nt)
			var first []float64
			for _, cores := range []int{1, 2} {
				poisonScratchPool()
				fw := New(Config{Nodes: 1, CoresPerNode: cores, FailPolicy: dass.FailDegrade})
				out, rep, err := fw.Run(v, p, "")
				if err != nil {
					t.Fatal(err)
				}
				if gapped := rep.Quality != nil && len(rep.Quality.Gaps) > 0; gapped != gap {
					t.Fatalf("%s gap=%v, %d cores: read reported gaps %v", op.Name, gap, cores, gapped)
				}
				if out.Channels != nch || out.Samples != outLen {
					t.Fatalf("%s gap=%v, %d cores: output %d×%d, want %d×%d", op.Name, gap, cores, out.Channels, out.Samples, nch, outLen)
				}
				for i, x := range out.Data {
					if math.IsNaN(x) || math.IsInf(x, 0) {
						t.Fatalf("%s gap=%v, %d cores: output %d is %v", op.Name, gap, cores, i, x)
					}
				}
				if got := hashBits(out.Data); got != want {
					t.Errorf("%s gap=%v, %d cores: output hash %#016x, want %#016x", op.Name, gap, cores, got, want)
				}
				first = out.Data
			}

			kept := arrayudf.Cells{C1: outLen}
			kept.ChLo = rng.Intn(nch)
			kept.ChHi = kept.ChLo + 1 + rng.Intn(nch-kept.ChLo)
			if p.Workload(nt).UDFInto == nil {
				kept.C0 = rng.Intn(outLen)
				kept.C1 = kept.C0 + 1 + rng.Intn(outLen-kept.C0)
			}
			poisonScratchPool()
			fw := New(Config{Nodes: 1, CoresPerNode: 2, FailPolicy: dass.FailDegrade})
			cells, _, err := fw.RunCells(v, p, kept)
			if err != nil {
				t.Fatal(err)
			}
			for ch := kept.ChLo; ch < kept.ChHi; ch++ {
				for k := kept.C0; k < kept.C1; k++ {
					if g, w := cells.Row(ch - kept.ChLo)[k-kept.C0], first[ch*outLen+k]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s gap=%v: RunCells %+v cell (%d,%d) = %v, Run %v", op.Name, gap, kept, ch, k, g, w)
					}
				}
			}

			oracle := pin.oracle(p, rec)
			if len(oracle) != len(first) {
				t.Fatalf("%s gap=%v: oracle gives %d values, the op %d", op.Name, gap, len(oracle), len(first))
			}
			for i, w := range oracle {
				if g := first[i]; !withinPin(g, w, pin.bound) {
					t.Fatalf("%s gap=%v: output (%d,%d) = %v, direct-form oracle %v (bound %g)", op.Name, gap, i/outLen, i%outLen, g, w, pin.bound)
				}
			}
		}
	}
}

// withinPin is the pin's oracle contract: NaN exactly where the oracle is
// NaN, exactly 0 or ±Inf where the oracle is, and otherwise within bound.
func withinPin(got, want, bound float64) bool {
	switch {
	case math.IsNaN(want):
		return math.IsNaN(got)
	case want == 0 || math.IsInf(want, 0):
		return got == want
	default:
		return math.Abs(got-want) <= bound
	}
}

// clampedWindow returns samples lo…hi of channel ch of rec, both indices
// clamped to the record as the engine's stencil clamps them, and whether the
// window holds a NaN gap marker.
func clampedWindow(rec *dasf.Array2D, ch, lo, hi int) ([]float64, bool) {
	row := rec.Row(min(max(ch, 0), rec.Channels-1))
	w := make([]float64, hi-lo+1)
	nan := false
	for i := range w {
		w[i] = row[min(max(lo+i, 0), len(row)-1)]
		nan = nan || math.IsNaN(w[i])
	}
	return w, nan
}

// localSimiDirect is Algorithm 2 cell by cell: the centre window against
// every lag of each ±K neighbour, one AbsCorr per lag; a window with a NaN
// is skipped, and a centre window with one scores 0.
func localSimiDirect(pp detect.Params, rec *dasf.Array2D) []float64 {
	p := pp.(*detect.LocalSimiParams)
	var out []float64
	for ch := 0; ch < rec.Channels; ch++ {
		for t := 0; t < rec.Samples; t += max(p.Stride, 1) {
			w, nan := clampedWindow(rec, ch, t-p.M, t+p.M)
			if nan {
				out = append(out, 0)
				continue
			}
			var cPlus, cMinus float64
			for l := -p.L; l <= p.L; l++ {
				if w1, nan := clampedWindow(rec, ch+p.K, t+l-p.M, t+l+p.M); !nan {
					cPlus = math.Max(cPlus, daslib.AbsCorr(w, w1))
				}
				if w2, nan := clampedWindow(rec, ch-p.K, t+l-p.M, t+l+p.M); !nan {
					cMinus = math.Max(cMinus, daslib.AbsCorr(w, w2))
				}
			}
			out = append(out, (cPlus+cMinus)/2)
		}
	}
	return out
}

// staltaDirect is the STA/LTA ratio cell by cell: the mean square of the
// trailing short and long windows, NaN samples counted as silence.
func staltaDirect(pp detect.Params, rec *dasf.Array2D) []float64 {
	p := pp.(*detect.STALTAParams)
	meanSq := func(ch, t, n int) float64 {
		w, _ := clampedWindow(rec, ch, t-(n-1), t)
		var sum float64
		for _, v := range w {
			if !math.IsNaN(v) {
				sum += v * v
			}
		}
		return sum / float64(n)
	}
	var out []float64
	for ch := 0; ch < rec.Channels; ch++ {
		for t := 0; t < rec.Samples; t += max(p.Stride, 1) {
			sta, lta := meanSq(ch, t, p.STASamples), meanSq(ch, t, p.LTASamples)
			if lta <= 0 {
				out = append(out, 0)
				continue
			}
			out = append(out, sta/lta)
		}
	}
	return out
}

// interferometryDirect is Algorithm 3 channel by channel: every row and the
// master preprocessed (PreprocessInto: NaN as zero, detrend, filtfilt,
// resample), then the kept lags of their normalised correlation summed in
// the time domain.
func interferometryDirect(pp detect.Params, rec *dasf.Array2D) []float64 {
	p := *pp.(*detect.InterferometryParams)
	master := preprocessed(p, rec.Row(p.MasterChannel))
	rowLen := p.RowLen(rec.Samples)
	var out []float64
	for ch := 0; ch < rec.Channels; ch++ {
		out = append(out, correlationDirect(preprocessed(p, rec.Row(ch)), master, rowLen)...)
	}
	return out
}

// stackedDirect is the stacked pipeline channel by channel: each window of
// the row and of the master preprocessed, correlated as interferometryDirect
// does, and the windows' lags averaged.
func stackedDirect(pp detect.Params, rec *dasf.Array2D) []float64 {
	p := *pp.(*detect.StackingParams)
	hop, nw, rowLen := p.WindowSamples-p.OverlapSamples, p.NumWindows(rec.Samples), p.StackedRowLen()
	master := rec.Row(p.MasterChannel)
	var out []float64
	for ch := 0; ch < rec.Channels; ch++ {
		sum := make([]float64, rowLen)
		for w := 0; w < nw; w++ {
			lo, hi := w*hop, w*hop+p.WindowSamples
			b := preprocessed(p.InterferometryParams, master[lo:hi])
			for i, v := range correlationDirect(preprocessed(p.InterferometryParams, rec.Row(ch)[lo:hi]), b, rowLen) {
				sum[i] += v
			}
		}
		for i := range sum {
			sum[i] /= float64(nw)
		}
		out = append(out, sum...)
	}
	return out
}

func preprocessed(p detect.InterferometryParams, x []float64) []float64 {
	out := make([]float64, daslib.ResampleLen(len(x), p.ResampleP, p.ResampleQ))
	if err := p.PreprocessInto(out, x, daslib.NewScratch()); err != nil {
		panic(err)
	}
	return out
}

// correlationDirect returns the rowLen lags of a against b that a row keeps
// (daslib.XCorrLagStart), each Σ_n a[n+lag]·b[n] over the overlap, scaled by
// 1/√(E_a·E_b) (1 when either has no energy).
func correlationDirect(a, b []float64, rowLen int) []float64 {
	var ea, eb float64
	for _, v := range a {
		ea += v * v
	}
	for _, v := range b {
		eb += v * v
	}
	norm := 1.0
	if ea != 0 && eb != 0 {
		norm = 1 / math.Sqrt(ea*eb)
	}
	start := daslib.XCorrLagStart(len(a), len(b), rowLen)
	out := make([]float64, rowLen)
	for i := range out {
		lag := start + i - (len(b) - 1)
		var acc float64
		for n := max(0, -lag); n < len(b) && n+lag < len(a); n++ {
			acc += a[n+lag] * b[n]
		}
		out[i] = acc * norm
	}
	return out
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
