package daslib

import (
	"math"
	"math/cmplx"
)

// XCorrLen returns the number of lags XCorrInto produces for inputs of
// length na and nb: na+nb-1.
func XCorrLen(na, nb int) int {
	if na == 0 || nb == 0 {
		return 0
	}
	return na + nb - 1
}

// XCorrInto computes the full linear cross-correlation of a and b via FFT
// into dst (len XCorrLen(len(a), len(b))): dst[k] = sum_n a[n+k-(len(b)-1)]
// · b[n], for lags k-(len(b)-1) in [-(len(b)-1), len(a)-1], matching MATLAB's
// xcorr(a, b) ordering (negative lags first), in O((n+m) log(n+m)). All
// intermediates are borrowed from s, and both spectra go through the packed
// real-input transform, so the whole correlation costs two half-size FFTs
// plus one half-size inverse — and zero allocations once s is warm.
func XCorrInto(dst, a, b []float64, s *Scratch) {
	n := XCorrLen(len(a), len(b))
	checkLen("XCorrInto dst", len(dst), n)
	if n == 0 {
		return
	}
	m := NextPow2(n)
	fa := s.Complex(m)
	rfftZeroPad(fa, a, s)
	// Correlation = convolution with time-reversed b.
	rb := s.Float(len(b))
	for i, v := range b {
		rb[len(b)-1-i] = v
	}
	fb := s.Complex(m)
	rfftZeroPad(fb, rb, s)
	s.ReleaseFloat(rb)
	for i := range fa {
		fa[i] *= fb[i]
	}
	s.ReleaseComplex(fb)
	tmp := s.Float(m)
	IRFFTInto(tmp, fa, s)
	copy(dst, tmp[:n])
	s.ReleaseFloat(tmp)
	s.ReleaseComplex(fa)
}

// XCorrNormalizedInto is XCorrInto scaled by 1/√(E_a·E_b), so a perfect
// alignment of identical signals peaks at 1 (the 'coeff' option of MATLAB's
// xcorr).
func XCorrNormalizedInto(dst, a, b []float64, s *Scratch) {
	XCorrInto(dst, a, b, s)
	var eb float64
	for _, v := range b {
		eb += v * v
	}
	norm := xcorrNorm(a, eb)
	for i := range dst {
		dst[i] *= norm
	}
}

// xcorrNorm returns the 'coeff' scale 1/√(E_a·E_b), or 1 when either series
// has no energy (the correlation is then identically zero).
func xcorrNorm(a []float64, eb float64) float64 {
	var ea float64
	for _, v := range a {
		ea += v * v
	}
	if ea == 0 || eb == 0 {
		return 1
	}
	return 1 / math.Sqrt(ea*eb)
}

// XCorrLagStart returns the index into the full correlation of na against
// nb samples (XCorrLen lags, zero lag at nb-1) of the first of n lags
// centred on zero lag, shifted where needed so the window stays inside the
// full correlation. It is the one definition of "the lags a row keeps".
func XCorrLagStart(na, nb, n int) int {
	return max(0, min(nb-1-n/2, XCorrLen(na, nb)-n))
}

// xcorrLagWindow returns the window of the full correlation a master
// prepared for maxLag produces: all of it for maxLag 0 or when ±maxLag
// covers it, else the 2·maxLag+1 lags XCorrLagStart centres on zero.
func xcorrLagWindow(na, nb, maxLag int) (lo, n int) {
	full := XCorrLen(na, nb)
	if maxLag <= 0 || 2*maxLag+1 >= full {
		return 0, full
	}
	n = 2*maxLag + 1
	return XCorrLagStart(na, nb, n), n
}

// XCorrMaster is the precomputed half of a normalised cross-correlation
// against a fixed reference series, as an overlap-save correlator that
// computes exactly the lags its caller keeps. The reference is cut into
// blocks of blk samples and the conjugate spectrum of each zero-padded
// block (transform size f) is stored; correlating a channel then transforms,
// per block, the f-sample segment of the channel that block can meet within
// the kept lags, multiply-accumulates it into one frequency-domain
// accumulator, and inverts once. A master that keeps every lag is the
// one-block case at f = NextPow2(na+nb-1). DESIGN.md §14 ("The
// interferometry row kernel") has the geometry.
//
// A master is immutable after preparation and safe for concurrent use by
// many worker goroutines.
type XCorrMaster struct {
	series []float64 // the reference series (owned copy)
	energy float64   // sum of squares of series
	na     int       // series length the master was prepared for
	maxLag int
	lo, n  int          // window of the full correlation produced: first index, count
	f      int          // block transform size, a power of two ≥ 2
	blk    int          // reference samples per block
	spec   []complex128 // per block, bins 0…f/2 of the conjugate spectrum
}

// PrepareXCorrMaster prepares a master that produces every lag of the
// correlation of series of length na against b. Returns nil for empty
// inputs.
func PrepareXCorrMaster(b []float64, na int) *XCorrMaster {
	return PrepareXCorrMasterLags(b, na, 0)
}

// PrepareXCorrMasterLags prepares a master that produces the lags
// −maxLag…+maxLag of the correlation of series of length na against b (all
// lags when maxLag is 0 or ±maxLag covers them). Returns nil for empty
// inputs.
//
// The transform size is a constant rule: the power of two at or above
// 8·maxLag (floor 256), so three quarters of every transformed segment is
// new reference samples — unless one transform of NextPow2(na+nb-1) points
// is no larger, which is then the whole correlation in one block.
func PrepareXCorrMasterLags(b []float64, na, maxLag int) *XCorrMaster {
	if len(b) == 0 || na <= 0 {
		return nil
	}
	mst := &XCorrMaster{series: append([]float64(nil), b...), na: na, maxLag: maxLag}
	for _, v := range b {
		mst.energy += v * v
	}
	full := XCorrLen(na, len(b))
	mst.lo, mst.n = xcorrLagWindow(na, len(b), maxLag)
	mst.f, mst.blk = max(NextPow2(full), 2), len(b)
	if f := max(NextPow2(8*maxLag), 256); mst.n < full && f < mst.f {
		mst.f, mst.blk = f, f-(mst.n-1)
	}
	half := mst.f / 2
	plan, tw := PlanFFT(half), twiddles(mst.f)
	seg := make([]float64, mst.f)
	mst.spec = make([]complex128, (len(b)+mst.blk-1)/mst.blk*(half+1))
	for off, spec := 0, mst.spec; off < len(b); off, spec = off+mst.blk, spec[half+1:] {
		clear(seg)
		copy(seg, b[off:min(off+mst.blk, len(b))])
		rfftHalf(spec[:half+1], seg, plan, tw)
		for k, v := range spec[:half+1] {
			spec[k] = cmplx.Conj(v)
		}
	}
	return mst
}

// rfftHalf computes bins 0…half of the 2·half-point DFT of the real signal
// seg into x (len half+1): the packed signal z[k] = seg[2k] + i·seg[2k+1]
// goes through the half-point complex transform in place and is untangled
// pairwise — bins k and half-k share one twiddle product.
func rfftHalf(x []complex128, seg []float64, plan *Plan, tw []complex128) {
	half := len(x) - 1
	seg = seg[:2*half]
	for k := range x[:half] {
		x[k] = complex(seg[2*k], seg[2*k+1])
	}
	plan.fftPow2(x[:half])
	// With E/O the half-point DFTs of the even/odd samples, Z = E + i·O, so
	// E[k] = (Z[k]+conj(Z[-k]))/2, O[k] = (Z[k]-conj(Z[-k]))/(2i) and
	// X[k] = E[k] + w^k·O[k]; bin half-k is conj(E[k] - w^k·O[k]).
	z0 := x[0]
	x[0] = complex(real(z0)+imag(z0), 0)
	x[half] = complex(real(z0)-imag(z0), 0)
	for k := 1; k <= half/2; k++ {
		zk, zc := x[k], cmplx.Conj(x[half-k])
		e := (zk + zc) * complex(0.5, 0)
		wo := tw[k] * ((zk - zc) * complex(0, -0.5))
		x[k] = e + wo
		x[half-k] = cmplx.Conj(e - wo)
	}
}

// Len returns the lag count produced for a series of the planned length.
func (mst *XCorrMaster) Len() int { return mst.n }

// Bytes returns the memory the master holds: the series copy plus the
// block spectra.
func (mst *XCorrMaster) Bytes() int64 {
	return int64(len(mst.series))*8 + int64(len(mst.spec))*16
}

// XCorrNormalizedInto writes the master's lag window of the normalised
// correlation of a against the master into dst (length Len()), borrowing
// the two f/2+1-bin work buffers and one edge segment from s. A series of a
// different length than planned falls back to the pairwise path and keeps
// the window its own length implies (correct, just not pre-transformed).
func (mst *XCorrMaster) XCorrNormalizedInto(dst, a []float64, s *Scratch) {
	if len(a) != mst.na {
		full := s.Float(XCorrLen(len(a), len(mst.series)))
		XCorrNormalizedInto(full, a, mst.series, s)
		lo, n := xcorrLagWindow(len(a), len(mst.series), mst.maxLag)
		checkLen("XCorrMaster dst", len(dst), n)
		copy(dst, full[lo:])
		s.ReleaseFloat(full)
		return
	}
	checkLen("XCorrMaster dst", len(dst), mst.n)
	f, half := mst.f, mst.f/2
	plan, tw := PlanFFT(half), twiddles(f)
	acc := s.Complex(half + 1)
	x := s.Complex(half + 1)
	edge := s.Float(f)
	// Block j holds master samples [j·blk, (j+1)·blk); within the kept lags
	// they meet channel samples [off, off+f), off = j·blk + lo - (nb-1).
	off := mst.lo - (len(mst.series) - 1)
	for spec := mst.spec; len(spec) > 0; spec, off = spec[half+1:], off+mst.blk {
		from, to := max(off, 0), min(off+f, len(a))
		if from >= to {
			continue // the segment lies wholly past an end of a: all zeros
		}
		seg := edge
		if to-from == f {
			seg = a[from:to]
		} else {
			clear(edge)
			copy(edge[from-off:], a[from:to])
		}
		rfftHalf(x, seg, plan, tw)
		for k, v := range spec[:half+1] {
			acc[k] += x[k] * v
		}
	}
	// One inverse for all blocks: re-tangle the accumulated half spectrum
	// into the packed half-point signal — conjugated, so the forward
	// transform inverts it — whose real/imaginary parts are the even/odd
	// outputs. Outputs 0…n-1 of the circular correlation are the kept lags.
	a0, ah := real(acc[0]), real(acc[half])
	acc[0] = complex((a0+ah)*0.5, -(a0-ah)*0.5)
	for k := 1; k <= half/2; k++ {
		yk, yc := acc[k], cmplx.Conj(acc[half-k])
		e := (yk + yc) * complex(0.5, 0)
		t := cmplx.Conj(tw[k]) * ((yk - yc) * complex(0, 0.5))
		acc[k] = cmplx.Conj(e + t)
		acc[half-k] = e - t
	}
	plan.fftPow2(acc[:half])
	scale := xcorrNorm(a, mst.energy) / float64(half)
	for r := range dst {
		if v := acc[r/2]; r&1 == 0 {
			dst[r] = real(v) * scale
		} else {
			dst[r] = -imag(v) * scale
		}
	}
	s.ReleaseFloat(edge)
	s.ReleaseComplex(x)
	s.ReleaseComplex(acc)
}
