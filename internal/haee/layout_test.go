package haee

import (
	"fmt"
	"math"
	"testing"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/detect"
	"dassa/internal/mpi"
	"dassa/internal/omp"
)

// TestPointsLayoutInvariance: a point workload's output does not depend on
// how the machine is laid out. The detectors carry partial sums from cell to
// cell on the thread's stencil, so which cells a thread is handed — by the
// team size, the schedule, the rank count or the engine mode — decides what
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
		PointsWorkload
	}{
		{"localsimi", PointsWorkload{Spec: simi.Spec(), UDFScratch: simi.UDFScratch()}},
		{"stalta", PointsWorkload{Spec: stalta.Spec(), UDFScratch: stalta.UDFScratch()}},
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
		for _, threads := range []int{1, 2, 3, 8} {
			same(ApplyMTScratch(omp.NewTeam(threads), blk, w.Spec, nt, w.UDFScratch), fmt.Sprintf("static team of %d", threads))
			// Chunks of 3 cells: every thread keeps changing place and row.
			dyn := omp.NewTeam(threads, omp.WithSchedule(omp.Dynamic), omp.WithChunk(3))
			same(ApplyMTScratch(dyn, blk, w.Spec, nt, w.UDFScratch), fmt.Sprintf("dynamic team of %d", threads))
		}
		for _, l := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {3, 2}} {
			for _, mode := range []Mode{PureMPI, Hybrid} {
				rep, err := New(Config{Nodes: l[0], CoresPerNode: l[1], Mode: mode}).RunPoints(v, w.PointsWorkload, "")
				if err != nil {
					t.Fatal(err)
				}
				same(rep.Output, fmt.Sprintf("%d×%d %s", l[0], l[1], mode))
			}
		}
	}
}
