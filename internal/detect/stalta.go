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
	STASamples int `json:"sta" key:"sta" help:"short window (samples; default rate/10)"`
	LTASamples int `json:"lta" key:"lta" help:"long window (samples; default rate)"`
	// Stride evaluates the ratio every Stride samples (0/1 = all).
	Stride int `json:"stride" key:"stride" help:"evaluate every N samples (default 1)"`
}

// Op names the registered operation these parameters belong to (ops.go).
func (STALTAParams) Op() string { return "stalta" }

// Validate checks the parameters against the nch × nt view they are to run
// on: the long window, which sizes the edge buffer, fits the time extent,
// and the stride leaves at least one cell.
func (p STALTAParams) Validate(nch, nt int) error {
	if p.STASamples < 1 || p.LTASamples <= p.STASamples {
		return fmt.Errorf("%w: STA/LTA needs 1 ≤ STA < LTA, got %d/%d", ErrBadParams, p.STASamples, p.LTASamples)
	}
	if nch < 1 || p.LTASamples > nt || p.Stride > nt {
		return fmt.Errorf("%w: STA/LTA %+v does not fit a %d×%d view (needs LTA ≤ samples, stride ≤ samples)",
			ErrBadParams, p, nch, nt)
	}
	return nil
}

// Spec returns the ArrayUDF spec: STA/LTA is single-channel, so no ghost
// zones are needed — which is also why it cannot use spatial coherence.
func (p STALTAParams) Spec() arrayudf.Spec {
	return arrayudf.Spec{TimeStride: p.Stride}
}

// Workload returns the trigger as the points workload the engine runs.
func (p STALTAParams) Workload(int) arrayudf.Workload {
	return arrayudf.Workload{Spec: p.Spec(), UDFScratch: p.UDFScratch()}
}

// TimeReach is the trailing long window: LTASamples−1 samples back, none
// forward; the first LTASamples−1 cells of a row clamp at its start.
func (p STALTAParams) TimeReach() (back, fwd int) { return p.LTASamples - 1, 0 }

// grid cuts a row where the on-grid long and short windows start and where
// both end; a segment record is its energy.
func (p STALTAParams) grid() *segGrid {
	return newSegGrid(max(p.Stride, 1), 1, 1-p.LTASamples, 1-p.STASamples, 1)
}

// UDFScratch returns the trigger as a scratch-aware point UDF: the ratio of
// mean squared amplitude in the trailing short window to the trailing long
// window. NaN-masked gaps count as silence, so a degraded span cannot
// trigger.
//
// The two energies come from the same partial sums as local similarity
// (segments.go): the row is cut where on-grid windows start (1−LTA and
// 1−STA modulo the stride) and end (1), each segment's energy is summed
// once, and the long window is the sum of its segments, the short one of the
// last few of them. The first LTASamples−1 cells of a row, whose windows
// reach before sample 0, cells off the stride grid, and every cell when the
// stride is so short that a window is cheaper summed than folded
// (segGrid.partials) sum their windows directly, the first of these on a
// buffer from the thread's scratch arena.
func (p STALTAParams) UDFScratch() func(s *arrayudf.Stencil, scr *daslib.Scratch) float64 {
	stride, grid := max(p.Stride, 1), p.grid()
	return func(s *arrayudf.Stencil, scr *daslib.Scratch) float64 {
		t := s.T()
		var sta, lta float64
		if !grid.partials || t < p.LTASamples-1 || t%stride != 0 {
			sta = energyWindow(s, scr, p.STASamples)
			lta = energyWindow(s, scr, p.LTASamples)
		} else {
			i := t / stride
			m := grid.memo(s)
			lo, end := m.seek(s.Channel(), i)
			row := s.Row(0)
			for rec, a, b, ok := m.next(); ok; rec, a, b, ok = m.next() {
				rec[0] = energy(row[a:b])
			}
			lta = m.sum(lo, end)[0]
			sta = m.sum(grid.boundary(1, i), end)[0]
		}
		sta, lta = sta/float64(p.STASamples), lta/float64(p.LTASamples)
		if lta <= 0 {
			return 0
		}
		return sta / lta
	}
}

// energy returns Σ x² in index order, skipping NaN gap markers —
// numerically identical to zeroing them (adding 0.0 is exact) without
// materializing a cleaned copy.
func energy(x []float64) float64 {
	var sum float64
	for _, v := range x {
		if !math.IsNaN(v) {
			sum += v * v
		}
	}
	return sum
}

// energyWindow is the energy of the trailing n-sample window, summed in
// place on the block row; a window reaching before sample 0 is clamped into
// a scratch buffer first.
func energyWindow(s *arrayudf.Stencil, scr *daslib.Scratch, n int) float64 {
	var edge []float64
	if s.T() < n-1 {
		edge = scr.Float(n)
	}
	sum := energy(s.Span(edge, -(n - 1), 0, 0))
	scr.ReleaseFloat(edge)
	return sum
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
