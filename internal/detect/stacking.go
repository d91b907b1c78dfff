package detect

import (
	"context"
	"fmt"

	"dassa/internal/arrayudf"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/mpi"
	"dassa/internal/pfs"
)

// The production ambient-noise workflow (Dou et al. 2017, the paper's
// ref [16]) does not correlate a whole recording at once: it splits the
// record into windows, cross-correlates each window against the master,
// and stacks the per-window correlations so uncorrelated noise averages
// out while the coherent travel-time structure accumulates. The paper's
// §IV notes exactly this: "during the stacking operation of the DAS data
// analysis pipeline, a 3D data array with a striping size as the third
// dimension may be produced" — the (channel × lag × window) intermediate
// this file materializes per channel before reducing over windows.

// StackingParams extends InterferometryParams with the windowing scheme.
type StackingParams struct {
	InterferometryParams
	// WindowSamples is the raw-sample length of one correlation window.
	WindowSamples int `json:"window_samples" key:"window" help:"correlation window (raw samples; default 1/8 of the record, at least 64)"`
	// OverlapSamples shifts successive windows by WindowSamples−Overlap.
	OverlapSamples int `json:"overlap_samples" key:"overlap" help:"window overlap (raw samples; default a quarter of the default window)"`
}

// Op names the registered operation these parameters belong to (ops.go).
func (StackingParams) Op() string { return "stacked" }

// Validate checks the windowing on top of the base parameters, against the
// nch × nt view: one window is what the base pipeline filters, and at least
// one fits the record.
func (p StackingParams) Validate(nch, nt int) error {
	if p.WindowSamples < 8 {
		return fmt.Errorf("%w: stacking window %d too short", ErrBadParams, p.WindowSamples)
	}
	if p.OverlapSamples < 0 || p.OverlapSamples >= p.WindowSamples {
		return fmt.Errorf("%w: overlap %d must be in [0, window %d)", ErrBadParams, p.OverlapSamples, p.WindowSamples)
	}
	if p.WindowSamples > nt {
		return fmt.Errorf("%w: record (%d samples) shorter than one stacking window (%d)", ErrBadParams, nt, p.WindowSamples)
	}
	return p.InterferometryParams.Validate(nch, p.WindowSamples)
}

// NumWindows returns how many windows fit in nt raw samples.
func (p StackingParams) NumWindows(nt int) int {
	hop := p.WindowSamples - p.OverlapSamples
	if nt < p.WindowSamples {
		return 0
	}
	return (nt-p.WindowSamples)/hop + 1
}

// StackedRowLen returns the output lag-axis length.
func (p StackingParams) StackedRowLen() int {
	return p.InterferometryParams.RowLen(p.WindowSamples)
}

// StackedMaster is the master channel preprocessed per window: one
// prepared correlation master (series copy + block spectra) per window.
// Every worker needs all of them, so in pure MPI this payload (windows ×
// resampled length) replicates per core, amplifying the Figure 8 memory
// argument.
type StackedMaster struct {
	Corrs []*daslib.XCorrMaster
}

// Bytes returns the payload size.
func (m *StackedMaster) Bytes() int64 {
	var n int64
	for _, c := range m.Corrs {
		n += c.Bytes()
	}
	return n
}

// prepareStackedMaster builds the per-window masters from the raw master
// row.
func (p StackingParams) prepareStackedMaster(raw []float64) (*StackedMaster, error) {
	nw := p.NumWindows(len(raw))
	if nw == 0 {
		return nil, fmt.Errorf("detect: record (%d samples) shorter than one window (%d)", len(raw), p.WindowSamples)
	}
	hop := p.WindowSamples - p.OverlapSamples
	m := &StackedMaster{Corrs: make([]*daslib.XCorrMaster, nw)}
	for w := 0; w < nw; w++ {
		series, err := p.preprocess(raw[w*hop : w*hop+p.WindowSamples])
		if err != nil {
			return nil, err
		}
		m.Corrs[w] = daslib.PrepareXCorrMasterLags(series, len(series), p.MaxLag)
	}
	return m, nil
}

// PrepareStackedMasterFromView reads the master channel from the view and
// builds the per-window payload — the rank-level Prepare step for engine
// runs.
func (p StackingParams) PrepareStackedMasterFromView(v *dass.View) (*StackedMaster, pfs.Trace, error) {
	raw, tr, err := readMasterRow(v, p.MasterChannel, p.failPolicy)
	if err != nil {
		return nil, tr, err
	}
	m, err := p.prepareStackedMaster(raw)
	return m, tr, err
}

// Workload assembles the stacked pipeline as the rows workload the engine
// runs, as InterferometryParams.Workload does for the unwindowed one (the
// time extent is unused: a stacked row's length follows from the window).
// Every rank prepares the per-window masters from the view it is handed and
// shares the row UDF bound to them and to that view's context.
func (p StackingParams) Workload(_ int) arrayudf.Workload {
	type rowUDF = func(s *arrayudf.Stencil, dst []float64, scr *daslib.Scratch)
	return arrayudf.Workload{
		RowLen: p.StackedRowLen(),
		Prepare: func(c *mpi.Comm, v *dass.View) (any, int64, pfs.Trace) {
			m, tr, err := p.PrepareStackedMasterFromView(v)
			if err != nil {
				panic(fmt.Errorf("detect: stacked master: %w", err))
			}
			return rowUDF(p.StackedUDFIntoContext(v.Context(), m)), m.Bytes(), tr
		},
		UDFInto: func(s *arrayudf.Stencil, shared any, dst []float64, scr *daslib.Scratch) {
			shared.(rowUDF)(s, dst, scr)
		},
	}
}

// StackedUDFIntoContext returns the per-channel row UDF: window the channel,
// correlate each window with the matching master window, stack by averaging
// straight into dst (length StackedRowLen). The (lag × window) intermediate
// lives only inside one evaluation — the 3D array never materializes
// globally, which is the memory point of doing stacking inside the UDF — and
// the two per-window buffers, preprocessed series and its kept-lag
// correlation, are borrowed from the scratch arena, so stacking W windows
// costs zero allocations after warm-up.
//
// Cancellation of ctx is checked at window boundaries, the stacking engine's
// natural tile — one window is one filter+FFT correlation, heavy enough that
// per-window checks cost nothing and a cancelled run stops within one
// window's work. The panic unwinds through the thread team and mpi.Run as
// the context's error.
func (p StackingParams) StackedUDFIntoContext(ctx context.Context, master *StackedMaster) func(s *arrayudf.Stencil, dst []float64, scr *daslib.Scratch) {
	hop := p.WindowSamples - p.OverlapSamples
	resLen := daslib.ResampleLen(p.WindowSamples, p.ResampleP, p.ResampleQ)
	return func(s *arrayudf.Stencil, dst []float64, scr *daslib.Scratch) {
		raw := s.Row(0)
		clear(dst)
		nw := min(p.NumWindows(len(raw)), len(master.Corrs))
		if nw == 0 {
			return
		}
		series := scr.Float(resLen)
		corr := scr.Float(len(dst))
		for w := 0; w < nw; w++ {
			if err := ctx.Err(); err != nil {
				panic(fmt.Errorf("detect: stacked correlate: %w", err))
			}
			if err := p.PreprocessInto(series, raw[w*hop:w*hop+p.WindowSamples], scr); err != nil {
				panic(fmt.Errorf("detect: stacked preprocess: %w", err))
			}
			master.Corrs[w].XCorrNormalizedInto(corr, series, scr)
			for i, v := range corr {
				dst[i] += v
			}
		}
		scr.ReleaseFloat(corr)
		scr.ReleaseFloat(series)
		inv := 1 / float64(nw)
		for i := range dst {
			dst[i] *= inv
		}
	}
}
