// Tuner: the paper's future-work item "automatically select system
// settings, such as the number of nodes" (§VIII), demonstrated. A small
// synthetic dataset calibrates the per-channel compute cost; the tuner
// then predicts read and compute time for every candidate machine layout
// at paper scale (11648 channels × 2880 files ≈ 1.9 TB on a Cori-like
// system) and picks the fastest that fits the node memory budget.
//
// Run with: go run ./examples/tuner
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/daslib"
	"dassa/internal/detect"
	"dassa/internal/haee"
	"dassa/internal/pfs"
)

func main() {
	log.SetFlags(0)

	// Calibrate: measure the interferometry UDF's per-channel cost on a
	// small real record — the row the engine runs (Workload.UDFInto into a
	// reused row, on an arena its first call has warmed).
	cfg := dasgen.Config{
		Channels: 16, SampleRate: 100, FileSeconds: 8, NumFiles: 1,
		Seed: 17, DType: dasf.Float64,
	}
	data, err := dasgen.GenerateFileArray(cfg, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	params := detect.InterferometryParams{
		Rate: cfg.SampleRate, FilterOrder: 3, CutoffHz: 12,
		ResampleP: 1, ResampleQ: 2, MasterChannel: 0, MaxLag: 64,
	}
	wl := params.Workload(data.Samples)
	series := make([]float64, daslib.ResampleLen(data.Samples, params.ResampleP, params.ResampleQ))
	if err := params.PreprocessInto(series, data.Row(params.MasterChannel), nil); err != nil {
		log.Fatal(err)
	}
	master := &detect.Master{Series: series, Corr: daslib.PrepareXCorrMasterLags(series, len(series), params.MaxLag)}
	blk := arrayudf.Block{Data: data, ChLo: 0, ChHi: data.Channels}
	row, scr, st := make([]float64, wl.RowLen), daslib.NewScratch(), blk.Stencil(0, 0)
	wl.UDFInto(st, master, row, scr)
	t0 := time.Now()
	for ch := 0; ch < data.Channels; ch++ {
		st.SetPos(ch, 0)
		wl.UDFInto(st, master, row, scr)
	}
	unit := time.Since(t0) / time.Duration(data.Channels)
	fmt.Printf("calibrated per-channel compute cost: %v\n", unit.Round(time.Microsecond))

	// Tune for a paper-scale run under a 128 GB node budget.
	in := haee.TunerInput{
		TotalBytes:      2880 * 700e6,
		Channels:        11648,
		Files:           2880,
		UnitCost:        unit,
		SharedBytes:     64 << 20,
		NodeMemoryBytes: 128 << 30,
		MaxNodes:        2048,
		CoresPerNode:    8,
		Model:           pfs.CoriLike(),
	}
	best, candidates, err := haee.SuggestLayout(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-6s %-7s %14s %14s %14s %10s\n", "nodes", "mode", "read", "compute", "total", "feasible")
	for _, c := range candidates {
		marker := " "
		if c == best {
			marker = "*"
		}
		fmt.Printf("%s%-5d %-7s %14v %14v %14v %10v\n",
			marker, c.Nodes, c.Mode, c.ReadTime.Round(time.Millisecond),
			c.ComputeTime.Round(time.Millisecond), c.Total().Round(time.Millisecond), c.Feasible)
	}
	fmt.Printf("\nsuggested layout: %d nodes × %d cores, %s mode (predicted %v end to end)\n",
		best.Nodes, best.CoresPerNode, best.Mode, best.Total().Round(time.Millisecond))
	if best.Mode != haee.Hybrid {
		os.Exit(1)
	}
}
