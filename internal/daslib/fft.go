// Package daslib is DASSA's DAS data analysis library: thread-safe,
// sequential signal-processing kernels whose names and semantics follow the
// MATLAB signal processing toolbox (the paper's Table II). Each kernel has
// one signature: it writes into a destination the caller owns and borrows its
// intermediates from a *Scratch (nil = allocate fresh). The hybrid execution
// engine (internal/haee) parallelizes these kernels over channels; nothing in
// this package spawns goroutines or holds mutable global state — the
// package-level tables (plans, twiddles, resample FIRs; see memo) are
// immutable once published.
package daslib

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

var twiddleTables memo[int, []complex128]

// twiddles returns exp(-2πi·k/n) for k in [0, n/2), built once per size. The
// returned slice is shared and must not be modified.
func twiddles(n int) []complex128 { return twiddleTables.get(n, newTwiddles) }

func newTwiddles(n int) []complex128 {
	tw := make([]complex128, n/2)
	for k := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(c, s)
	}
	return tw
}

// bitReversalSwaps returns the index pairs (i, j = bit-reverse(i), i < j) of
// the radix-2 input permutation for size n, flattened as i0, j0, i1, j1, ….
// Plans hold the table so the permutation is a table walk instead of a
// bits.Reverse64 per index per call.
func bitReversalSwaps(n int) []int32 {
	if n <= 2 {
		return nil
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	var swaps []int32
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			swaps = append(swaps, int32(i), int32(j))
		}
	}
	return swaps
}

// fftPow2 is the in-place iterative radix-2 Cooley-Tukey transform over the
// plan's power-of-two size: the bit-reversal permutation walks the plan's
// swap table, the butterflies index its twiddle table. The size-2 and size-4
// stages, whose blocks hold one and two butterflies, run as flat loops with
// their twiddles tw[0] and tw[n/4] hoisted; every butterfly is the same
// complex multiply, add and subtract at every stage.
func (p *Plan) fftPow2(x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	swaps := p.swaps
	for k := 0; k+1 < len(swaps); k += 2 {
		i, j := swaps[k], swaps[k+1]
		x[i], x[j] = x[j], x[i]
	}
	tw := p.tw
	w0 := tw[0]
	for start := 0; start+1 < n; start += 2 {
		q := x[start : start+2 : start+2]
		a, b := q[0], q[1]*w0
		q[0], q[1] = a+b, a-b
	}
	if n >= 4 {
		w1 := tw[n/4]
		for start := 0; start+3 < n; start += 4 {
			q := x[start : start+4 : start+4]
			a0, b0 := q[0], q[2]*w0
			a1, b1 := q[1], q[3]*w1
			q[0], q[2] = a0+b0, a0-b0
			q[1], q[3] = a1+b1, a1-b1
		}
	}
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size // index step into the full-size twiddle table
		for start := 0; start < n; start += size {
			lo, hi := x[start:start+half], x[start+half:start+size]
			hi = hi[:len(lo)]
			for k, a := range lo {
				b := hi[k] * tw[k*stride]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// fftFreqAbs returns the absolute frequency (Hz) of DFT bin i for a signal
// of length n sampled at rate Hz; bins past (n-1)/2 hold the negative
// frequencies (MATLAB/NumPy convention).
func fftFreqAbs(i, n int, rate float64) float64 {
	df := rate / float64(n)
	if i <= (n-1)/2 {
		return math.Abs(float64(i) * df)
	}
	return math.Abs(float64(i-n) * df)
}

// checkLen panics with a clear message on impossible internal states.
func checkLen(name string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("daslib: %s: length %d, want %d", name, got, want))
	}
}

// conjScale is the shared IFFT epilogue: x[i] = conj(x[i]) * s.
func conjScale(x []complex128, s float64) {
	cs := complex(s, 0)
	for i, v := range x {
		x[i] = cmplx.Conj(v) * cs
	}
}
