package bench

import "dassa/internal/obs"

// PhasesJSON is the per-phase wall-clock breakdown embedded in benchmark
// rows: read / exchange / compute / write, each the maximum across ranks in
// milliseconds (the straggler defines the phase wall, as in Figs. 8–10).
// Phases a run never entered stay zero.
type PhasesJSON struct {
	ReadMS     float64 `json:"read_ms"`
	ExchangeMS float64 `json:"exchange_ms"`
	ComputeMS  float64 `json:"compute_ms"`
	WriteMS    float64 `json:"write_ms"`
}

// phasesOf flattens a span report into the row form.
func phasesOf(rep obs.PhaseReport) PhasesJSON {
	return PhasesJSON{
		ReadMS:     float64(rep.Max[obs.PhaseRead]) / 1e6,
		ExchangeMS: float64(rep.Max[obs.PhaseExchange]) / 1e6,
		ComputeMS:  float64(rep.Max[obs.PhaseCompute]) / 1e6,
		WriteMS:    float64(rep.Max[obs.PhaseWrite]) / 1e6,
	}
}
