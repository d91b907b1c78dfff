package detect

import (
	"fmt"
	"math"

	"dassa/internal/arrayudf"
	"dassa/internal/daslib"
)

// STA/LTA (short-term average over long-term average) is the classical
// single-channel seismic trigger that the local-similarity method (Li et
// al. 2018, the paper's ref [18]) was designed to beat on large-N arrays:
// it fires on any energy burst, coherent or not, so it false-triggers on
// local noise that local similarity rejects. Implementing it gives the
// repository the comparison baseline for the detection case study.

// STALTAParams configures the trigger.
type STALTAParams struct {
	// STASamples and LTASamples are the short and long window lengths;
	// STA < LTA.
	STASamples int
	LTASamples int
	// Stride evaluates the ratio every Stride samples (0/1 = all).
	Stride int
}

// Validate checks the parameters.
func (p STALTAParams) Validate() error {
	if p.STASamples < 1 || p.LTASamples <= p.STASamples {
		return fmt.Errorf("detect: STA/LTA needs 1 ≤ STA < LTA, got %d/%d", p.STASamples, p.LTASamples)
	}
	return nil
}

// Spec returns the ArrayUDF spec: STA/LTA is single-channel, so no ghost
// zones are needed — which is also why it cannot use spatial coherence.
func (p STALTAParams) Spec() arrayudf.Spec {
	return arrayudf.Spec{TimeStride: p.Stride}
}

// UDFScratch returns the trigger as a scratch-aware point UDF: the ratio of
// mean squared amplitude in the trailing short window to the trailing long
// window. NaN-masked gaps count as silence, so a degraded span cannot
// trigger. Only the first LTASamples−1 cells of a row, whose windows reach
// before sample 0, borrow from the thread's scratch arena.
func (p STALTAParams) UDFScratch() func(s *arrayudf.Stencil, scr *daslib.Scratch) float64 {
	return func(s *arrayudf.Stencil, scr *daslib.Scratch) float64 {
		sta := meanSquareWindow(s, scr, p.STASamples)
		lta := meanSquareWindow(s, scr, p.LTASamples)
		if lta <= 0 {
			return 0
		}
		return sta / lta
	}
}

// meanSquareWindow computes the mean squared amplitude of the trailing
// n-sample window, summed in place on the block row and skipping NaN gap
// markers — numerically identical to zeroing them (adding 0.0 is exact)
// without materializing a cleaned copy.
func meanSquareWindow(s *arrayudf.Stencil, scr *daslib.Scratch, n int) float64 {
	var edge []float64
	if s.T() < n-1 {
		edge = scr.Float(n)
	}
	var sum float64
	for _, v := range s.Span(edge, -(n - 1), 0, 0) {
		if !math.IsNaN(v) {
			sum += v * v
		}
	}
	scr.ReleaseFloat(edge)
	return sum / float64(n)
}

// Ratio computes the STA/LTA series for one channel directly (serial
// helper for tests and small jobs): out[i] is the ratio at sample
// i·stride.
func (p STALTAParams) Ratio(x []float64) []float64 {
	stride := p.Stride
	if stride <= 0 {
		stride = 1
	}
	n := (len(x) + stride - 1) / stride
	out := make([]float64, n)
	// Prefix sums of squares make each evaluation O(1).
	prefix := make([]float64, len(x)+1)
	for i, v := range x {
		prefix[i+1] = prefix[i] + v*v
	}
	// window matches the Stencil's clamping semantics: indices outside the
	// series replicate the nearest edge sample.
	window := func(lo, hi int) float64 {
		if len(x) == 0 {
			return 0
		}
		count := float64(hi - lo + 1)
		var s float64
		if lo < 0 {
			s += float64(-lo) * x[0] * x[0]
			lo = 0
		}
		if hi >= len(x) {
			s += float64(hi-len(x)+1) * x[len(x)-1] * x[len(x)-1]
			hi = len(x) - 1
		}
		if hi >= lo {
			s += prefix[hi+1] - prefix[lo]
		}
		return s / count
	}
	for i := 0; i < n; i++ {
		t := i * stride
		sta := window(t-p.STASamples+1, t)
		lta := window(t-p.LTASamples+1, t)
		if lta <= 0 {
			out[i] = 0
			continue
		}
		out[i] = sta / lta
	}
	return out
}

// TriggerRate returns the fraction of evaluated points whose ratio exceeds
// thresh — the false-trigger metric the comparison bench reports.
func TriggerRate(ratios []float64, thresh float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	hits := 0
	for _, v := range ratios {
		if v > thresh {
			hits++
		}
	}
	return float64(hits) / float64(len(ratios))
}

// MaxRatio returns the series maximum (detection strength at the event).
func MaxRatio(ratios []float64) float64 {
	best := math.Inf(-1)
	for _, v := range ratios {
		if v > best {
			best = v
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}
