package haee

import (
	"fmt"
	"math"
	"testing"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/daslib"
	"dassa/internal/detect"
	"dassa/internal/mpi"
	"dassa/internal/omp"
)

// TestPointsLayoutInvariance: a point workload's output does not depend on
// how the machine is laid out. The detectors carry partial sums from cell to
// cell on the thread's stencil, so which cells a thread is handed — by the
// team size, the rank count or the engine mode — decides what
// it finds there and must not decide a single bit: every layout equals the
// sequential arrayudf.Apply on one rank.
func TestPointsLayoutInvariance(t *testing.T) {
	v, _, _ := makeView(t, 11, 3)
	nch, nt := v.Shape()
	simi := detect.LocalSimiParams{M: 7, K: 2, L: 2, Stride: 5}
	stalta := detect.STALTAParams{STASamples: 4, LTASamples: 30, Stride: 4}
	if err := simi.Validate(nch, nt); err != nil {
		t.Fatal(err)
	}
	if err := stalta.Validate(nch, nt); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name string
		arrayudf.Workload
	}{
		{simi.Op(), simi.Workload(nt)},
		{stalta.Op(), stalta.Workload(nt)},
	} {
		var want *dasf.Array2D
		var blk arrayudf.Block
		if _, err := mpi.Run(1, func(c *mpi.Comm) {
			want = arrayudf.Apply(c, v, w.Spec, func(s *arrayudf.Stencil) float64 { return w.UDFScratch(s, nil) }).Data
			blk, _, _ = arrayudf.LoadBlock(c, v, w.Spec)
		}); err != nil {
			t.Fatal(err)
		}
		same := func(got *dasf.Array2D, layout string) {
			t.Helper()
			if got.Channels != want.Channels || got.Samples != want.Samples {
				t.Fatalf("%s, %s: %d×%d, sequential %d×%d", w.name, layout, got.Channels, got.Samples, want.Channels, want.Samples)
			}
			for i, g := range got.Data {
				if math.Float64bits(g) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s, %s: cell (%d,%d) = %v, sequential %v", w.name, layout, i/got.Samples, i%got.Samples, g, want.Data[i])
				}
			}
		}
		// Teams of 5 and 7 hand threads chunks that start mid-row.
		for _, threads := range []int{1, 2, 3, 5, 7, 8} {
			same(ApplyMTScratch(omp.NewTeam(threads), blk, w.Spec, nt, w.UDFScratch), fmt.Sprintf("static team of %d", threads))
		}
		for _, l := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {3, 2}} {
			for _, mode := range []Mode{PureMPI, Hybrid} {
				rep, err := New(Config{Nodes: l[0], CoresPerNode: l[1], Mode: mode}).Run(v, w.Workload, "")
				if err != nil {
					t.Fatal(err)
				}
				same(rep.Output, fmt.Sprintf("%d×%d %s", l[0], l[1], mode))
			}
		}
	}
}

// TestRowsLayoutInvariance is the rows half of the same promise: an
// interferometry or stacked row is one channel's work on one thread's arena,
// so neither the team size, the rank count nor the engine mode — which decide
// which thread computes a row, on what its arena last held, and which rank
// prepared the master it correlates against — may decide a bit of it. Every
// layout equals the 1×1 run.
func TestRowsLayoutInvariance(t *testing.T) {
	v, _, cfg := makeView(t, 11, 3)
	nch, nt := v.Shape()
	interf := detect.InterferometryParams{
		Rate: cfg.SampleRate, FilterOrder: 3, CutoffHz: 8,
		ResampleP: 1, ResampleQ: 2, MasterChannel: 4, MaxLag: 25,
	}
	stacked := detect.StackingParams{InterferometryParams: interf, WindowSamples: 64, OverlapSamples: 16}
	if err := interf.Validate(nch, nt); err != nil {
		t.Fatal(err)
	}
	if err := stacked.Validate(nch, nt); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name string
		arrayudf.Workload
	}{
		{interf.Op(), interf.Workload(nt)},
		{stacked.Op(), stacked.Workload(nt)},
	} {
		ref, err := New(Config{Nodes: 1, CoresPerNode: 1, Mode: Hybrid}).Run(v, w.Workload, "")
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Output
		if want.Channels != nch || want.Samples != w.RowLen {
			t.Fatalf("%s: 1×1 output %d×%d, want %d×%d", w.name, want.Channels, want.Samples, nch, w.RowLen)
		}
		same := func(got *dasf.Array2D, layout string) {
			t.Helper()
			if got.Channels != want.Channels || got.Samples != want.Samples {
				t.Fatalf("%s, %s: %d×%d, 1×1 run %d×%d", w.name, layout, got.Channels, got.Samples, want.Channels, want.Samples)
			}
			for i, g := range got.Data {
				if math.Float64bits(g) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s, %s: row %d lag %d = %v, 1×1 run %v", w.name, layout, i/got.Samples, i%got.Samples, g, want.Data[i])
				}
			}
		}
		var blk arrayudf.Block
		var shared any
		if _, err := mpi.Run(1, func(c *mpi.Comm) {
			blk, _, _ = arrayudf.LoadBlock(c, v, w.Spec)
			shared, _, _ = w.Prepare(c, v)
		}); err != nil {
			t.Fatal(err)
		}
		row := func(s *arrayudf.Stencil, dst []float64, scr *daslib.Scratch) { w.UDFInto(s, shared, dst, scr) }
		for _, threads := range []int{1, 2, 3, 8} {
			same(ApplyRowsInto(omp.NewTeam(threads), blk, w.RowLen, row), fmt.Sprintf("team of %d", threads))
		}
		for _, l := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {3, 2}} {
			for _, mode := range []Mode{PureMPI, Hybrid} {
				rep, err := New(Config{Nodes: l[0], CoresPerNode: l[1], Mode: mode}).Run(v, w.Workload, "")
				if err != nil {
					t.Fatal(err)
				}
				same(rep.Output, fmt.Sprintf("%d×%d %s", l[0], l[1], mode))
			}
		}
	}
}
