package daslib

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// Hilbert returns the analytic signal of x (via the FFT one-sided
// spectrum method, like MATLAB's hilbert): real part = x, imaginary part =
// the Hilbert transform of x.
func Hilbert(x []float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	spec := make([]complex128, n)
	RFFTInto(spec, x, nil)
	// One-sided doubling: keep DC (and Nyquist for even n), double the
	// positive frequencies, zero the negative ones.
	half := n / 2
	for i := 1; i < half; i++ {
		spec[i] *= 2
	}
	if n%2 == 0 {
		// spec[half] (Nyquist) stays as is.
		for i := half + 1; i < n; i++ {
			spec[i] = 0
		}
	} else {
		spec[half] *= 2
		for i := half + 1; i < n; i++ {
			spec[i] = 0
		}
	}
	PlanFFT(n).IFFTInto(spec, spec, nil)
	return spec
}

// Envelope returns the instantaneous amplitude |hilbert(x)| — the standard
// seismic attribute for picking arrivals.
func Envelope(x []float64) []float64 {
	a := Hilbert(x)
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = cmplx.Abs(v)
	}
	return out
}

// Spectrogram is a time-frequency magnitude image: Mag[frame][bin] over
// NumBins one-sided frequency bins spaced BinHz apart, frames HopSamples
// apart.
type Spectrogram struct {
	Mag        [][]float64
	NumBins    int
	BinHz      float64
	HopSamples int
}

// STFT computes a short-time Fourier transform magnitude spectrogram with
// a Hann window: frames of length nfft every hop samples (one-sided
// spectrum). nfft must be a power of two; the last partial frame is
// dropped, matching MATLAB's spectrogram defaults.
func STFT(x []float64, nfft, hop int, rate float64) (*Spectrogram, error) {
	if nfft < 2 || nfft&(nfft-1) != 0 {
		return nil, fmt.Errorf("daslib: STFT nfft must be a power of two ≥ 2, got %d", nfft)
	}
	if hop < 1 {
		return nil, fmt.Errorf("daslib: STFT hop must be ≥ 1, got %d", hop)
	}
	if len(x) < nfft {
		return nil, fmt.Errorf("daslib: STFT input length %d shorter than nfft %d", len(x), nfft)
	}
	win := hannWin(nfft) // shared cache entry; read-only here
	bins := nfft/2 + 1
	var mags [][]float64
	plan := PlanFFT(nfft)
	frame := make([]complex128, nfft)
	for start := 0; start+nfft <= len(x); start += hop {
		for i := 0; i < nfft; i++ {
			frame[i] = complex(x[start+i]*win[i], 0)
		}
		plan.fftPow2(frame)
		row := make([]float64, bins)
		for b := 0; b < bins; b++ {
			row[b] = cmplx.Abs(frame[b])
		}
		mags = append(mags, row)
	}
	return &Spectrogram{
		Mag:        mags,
		NumBins:    bins,
		BinHz:      rate / float64(nfft),
		HopSamples: hop,
	}, nil
}

// PeakFrequency returns the frequency (Hz) of the strongest bin in frame i
// (ignoring DC).
func (s *Spectrogram) PeakFrequency(i int) float64 {
	if i < 0 || i >= len(s.Mag) {
		return 0
	}
	best, bestB := -1.0, 0
	for b := 1; b < s.NumBins; b++ {
		if s.Mag[i][b] > best {
			best, bestB = s.Mag[i][b], b
		}
	}
	return float64(bestB) * s.BinHz
}

// MedianFilter returns the sliding-window median of x with window
// 2*half+1, shrinking at the edges — a robust despiking step used before
// correlation analysis.
func MedianFilter(x []float64, half int) []float64 {
	n := len(x)
	out := make([]float64, n)
	if half <= 0 {
		copy(out, x)
		return out
	}
	buf := make([]float64, 0, 2*half+1)
	for i := range x {
		lo := max(i-half, 0)
		hi := min(i+half, n-1)
		buf = append(buf[:0], x[lo:hi+1]...)
		sort.Float64s(buf)
		m := len(buf)
		if m%2 == 1 {
			out[i] = buf[m/2]
		} else {
			out[i] = (buf[m/2-1] + buf[m/2]) / 2
		}
	}
	return out
}

// InstantaneousPhase returns the unwrapped phase of the analytic signal.
func InstantaneousPhase(x []float64) []float64 {
	a := Hilbert(x)
	out := make([]float64, len(a))
	prev := 0.0
	offset := 0.0
	for i, v := range a {
		ph := cmplx.Phase(v)
		if i > 0 {
			d := ph - prev
			for d > math.Pi {
				d -= 2 * math.Pi
				offset -= 2 * math.Pi
			}
			for d < -math.Pi {
				d += 2 * math.Pi
				offset += 2 * math.Pi
			}
		}
		out[i] = ph + offset
		prev = ph
	}
	return out
}
