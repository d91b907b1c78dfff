package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dassa/internal/dass"
	"dassa/internal/mpi"
	"dassa/internal/obs"
	"dassa/internal/pfs"
)

// Fig7Row is one reading strategy's measurement in Figure 7.
type Fig7Row struct {
	Method    string
	Wall      time.Duration // measured on this machine
	Trace     pfs.Trace     // measured operation counts
	Projected time.Duration // trace projected onto the Cori-like model
	// PaperScale projects the same strategy's analytic op counts at the
	// paper's dimensions (1440 files × 700 MB, 90 processes).
	PaperScale time.Duration
	// Phases is the measured read/exchange split (max across ranks); pure
	// read strategies never enter compute or write.
	Phases PhasesJSON `json:"phases"`
}

// RunFig7 reproduces Figure 7: reading a VCA with the "collective-per-file"
// method vs the "communication-avoiding" method, with an RCA read as the
// reference, using o.Ranks processes that each need 1/p of every file. The
// paper reports communication-avoiding ≈37× faster than collective-per-file
// and faster than the RCA read.
func RunFig7(o Options) ([]Fig7Row, error) {
	w := o.out()
	cat, err := EnsureDataset(o)
	if err != nil {
		return nil, err
	}
	vcaPath := filepath.Join(o.DataDir, "fig7.vca.dasf")
	rcaPath := filepath.Join(o.DataDir, "fig7.rca.dasf")
	defer os.Remove(rcaPath)
	if _, err := dass.CreateVCA(vcaPath, cat.Entries()); err != nil {
		return nil, err
	}
	if _, err := dass.CreateRCA(rcaPath, cat.Entries()); err != nil {
		return nil, err
	}
	vcaView, err := dass.OpenView(vcaPath)
	if err != nil {
		return nil, err
	}
	rcaView, err := dass.OpenView(rcaPath)
	if err != nil {
		return nil, err
	}

	type method struct {
		name string
		view *dass.View
		read func(c *mpi.Comm, v *dass.View) (dass.Block, pfs.Trace)
	}
	methods := []method{
		{"collective-per-file", vcaView, dass.ReadCollectivePerFile},
		{"communication-avoiding", vcaView, dass.ReadCommAvoiding},
		{"RCA independent", rcaView, dass.ReadIndependent},
	}

	var rows []Fig7Row
	for _, m := range methods {
		var tr pfs.Trace
		spans := obs.NewSpans(o.Ranks)
		view := m.view.WithContext(obs.ContextWithSpans(m.view.Context(), spans))
		wall, err := timeIt(func() error {
			_, werr := mpi.Run(o.Ranks, func(c *mpi.Comm) {
				_, t := m.read(c, view)
				if c.Rank() == 0 {
					tr = t
				}
			})
			return werr
		})
		if err != nil {
			return nil, err
		}
		row := Fig7Row{
			Method:     m.name,
			Wall:       wall,
			Trace:      tr,
			Projected:  o.Model.Project(tr).Total(),
			PaperScale: o.Model.Project(paperScaleTrace(m.name)).Total(),
			Phases:     phasesOf(spans.Report()),
		}
		if m.name == "RCA independent" {
			// Figure 7's RCA bars include the (serial) merge that produced
			// the file.
			row.Method = "RCA (incl. creation)"
			row.PaperScale += o.Model.Project(rcaCreationTrace()).Total()
		}
		rows = append(rows, row)
	}

	hline(w, "Figure 7: reading DAS data from a VCA")
	fmt.Fprintf(w, "%-24s %12s %8s %8s %8s %14s %14s\n",
		"method", "wall", "opens", "reads", "bcasts", "model(meas.)", "model(paper)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %12v %8d %8d %8d %14v %14v\n",
			r.Method, r.Wall.Round(time.Microsecond), r.Trace.Opens, r.Trace.Reads,
			r.Trace.Broadcasts, r.Projected.Round(time.Millisecond),
			r.PaperScale.Round(time.Millisecond))
	}
	if rows[1].PaperScale > 0 {
		fmt.Fprintf(w, "paper-scale speedup comm-avoiding vs collective-per-file: %.1fx (paper: ≈37x)\n",
			float64(rows[0].PaperScale)/float64(rows[1].PaperScale))
	}
	return rows, nil
}

// paperScaleTrace builds the analytic operation trace of each strategy at
// the paper's experiment size: n = 1440 one-minute files of ≈700 MB each,
// p = 90 processes, every process needing 1/p of every file.
func paperScaleTrace(method string) pfs.Trace {
	const (
		n         = 1440
		p         = 90
		fileBytes = int64(700e6)
	)
	switch method {
	case "collective-per-file":
		return pfs.Trace{
			Opens: n, Reads: n, BytesRead: n * fileBytes,
			Broadcasts: n, BcastBytes: n * fileBytes,
			Processes: p,
		}
	case "communication-avoiding":
		return pfs.Trace{
			Opens: n, Reads: n, BytesRead: n * fileBytes,
			ExchangeRounds: int64((n + p - 1) / p * (p - 1)),
			ExchangeBytes:  n * fileBytes,
			Processes:      p,
		}
	default: // RCA independent: p ranks, each one contiguous slab of the big file
		return pfs.Trace{
			Opens: p, Reads: p, BytesRead: n * fileBytes,
			Processes: p,
		}
	}
}

// rcaCreationTrace is the serial cost of building the RCA in the first
// place — Figure 7's RCA bars include it ("accessing RCA (i.e., creating a
// really merged HDF5 file)").
func rcaCreationTrace() pfs.Trace {
	const (
		n         = 1440
		fileBytes = int64(700e6)
	)
	return pfs.Trace{
		Opens: n, Reads: n, BytesRead: n * fileBytes,
		Writes: n, BytesWritten: n * fileBytes,
		Processes: 1,
	}
}
