package bench

import (
	"fmt"
	"time"

	"dassa/internal/arrayudf"
	"dassa/internal/daslib"
	"dassa/internal/dass"
)

// This repository's benches run on whatever machine is available — often a
// single-core CI box — where wall-clock parallel speedup is physically
// unmeasurable: goroutine "ranks" timeslice one core, so every layout takes
// the same wall time. The paper's compute-scaling results (Figures 8, 9,
// 11) are therefore reported through a measured work model:
//
//   - the per-evaluation cost of the UDF is MEASURED by running it serially
//     over real data;
//   - the per-rank evaluation counts come from the REAL partitioner, so load
//     imbalance (the only structural reason compute efficiency drops below
//     100% for these embarrassingly parallel UDFs) is exact;
//   - modeled wall time = max over ranks of (evaluations × measured cost).
//
// Raw measured serial times are always printed alongside the model, and the
// same workload code paths execute for real — only the wall-clock
// attribution is modeled. EXPERIMENTS.md states this for every affected
// figure.

// computeProbe measures the serial per-channel cost of the interferometry
// UDF on real data and returns (unit cost, total channels). It times the row
// the engine runs — Workload(nt).UDFInto into a reused row on an arena the
// first row has warmed, as every later row of an engine thread finds it — so
// the modeled compute columns are a projection of the program, not of a
// pipeline beside it.
func computeProbe(o Options, v *dass.View) (time.Duration, int, error) {
	params := o.interferometry()
	nch, nt := v.Shape()
	if err := params.Validate(nch, nt); err != nil {
		return 0, 0, err
	}
	data, _, err := v.Read()
	if err != nil {
		return 0, 0, err
	}
	master, _, err := params.PrepareMaster(v)
	if err != nil {
		return 0, 0, err
	}
	wl := params.Workload(nt)
	blk := arrayudf.Block{Data: data, ChLo: 0, ChHi: nch}
	row, scr, st := make([]float64, wl.RowLen), daslib.NewScratch(), blk.Stencil(0, 0)
	wl.UDFInto(st, master, row, scr)
	// Probe over a bounded number of channels to keep benches quick.
	probe := min(nch, 16)
	t0 := time.Now()
	for ch := 0; ch < probe; ch++ {
		st.SetPos(ch, 0)
		wl.UDFInto(st, master, row, scr)
	}
	unit := time.Duration(int64(time.Since(t0)) / int64(probe))
	if unit <= 0 {
		unit = time.Nanosecond
	}
	return unit, nch, nil
}

// modeledWall returns the work-model wall time for nch channels split over
// workers: max per-worker channel count × unit cost.
func modeledWall(unit time.Duration, nch, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	maxPer := 0
	for r := 0; r < workers; r++ {
		lo, hi := dass.Partition(nch, workers, r)
		if hi-lo > maxPer {
			maxPer = hi - lo
		}
	}
	return time.Duration(int64(unit) * int64(maxPer))
}

// formatEff renders an efficiency percentage.
func formatEff(e float64) string { return fmt.Sprintf("%.1f%%", e) }
