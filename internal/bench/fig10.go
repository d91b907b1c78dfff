package bench

import (
	"fmt"
	"path/filepath"

	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/haee"
)

// Fig10Event is one detected region of the local-similarity map, with a
// classification derived from its geometry.
type Fig10Event struct {
	detect.Region
	// Class is "earthquake" (wide channel span), "vehicle" (localized,
	// transient), or "vibration" (localized, persistent).
	Class string
	// StartSec/EndSec convert the strided output indices back to seconds.
	StartSec, EndSec float64
}

// RunFig10 reproduces Figure 10: the local-similarity map (Algorithm 2)
// over a record with two moving vehicles, one earthquake, and a persistent
// vibration, computed with HAEE and scanned for events. The planted events
// are known, so the detections are verified, not just displayed.
func RunFig10(o Options) ([]Fig10Event, error) {
	w := o.out()
	cat, err := EnsureDataset(o)
	if err != nil {
		return nil, err
	}
	vcaPath := filepath.Join(o.DataDir, "fig10.vca.dasf")
	if _, err := dass.CreateVCA(vcaPath, cat.Entries()); err != nil {
		return nil, err
	}
	v, err := dass.OpenView(vcaPath)
	if err != nil {
		return nil, err
	}

	// The registry's default operation at its defaults, events included.
	op, _ := detect.Lookup(detect.DefaultOp)
	nch, nt := v.Shape()
	params := op.Default(o.SampleRate, nt)
	if err := params.Validate(nch, nt); err != nil {
		return nil, err
	}
	eng := haee.New(haee.Config{Nodes: 2, CoresPerNode: o.CoresPerNode, Mode: haee.Hybrid})
	rep, err := eng.Run(v, params.Workload(nt), "")
	if err != nil {
		return nil, err
	}
	sim := rep.Output

	regions := op.Events(sim, detect.DefaultThreshold)
	totalSec := o.FileSeconds * float64(o.Files)
	secPerIdx := totalSec / float64(sim.Samples)
	var events []Fig10Event
	for _, r := range regions {
		ev := Fig10Event{
			Region:   r,
			StartSec: float64(r.TLo) * secPerIdx,
			EndSec:   float64(r.THi) * secPerIdx,
		}
		span := r.ChHi - r.ChLo
		dur := ev.EndSec - ev.StartSec
		switch {
		case span > nch/2:
			ev.Class = "earthquake"
		case dur > 0.5*totalSec:
			ev.Class = "vibration"
		default:
			ev.Class = "vehicle"
		}
		events = append(events, ev)
	}

	hline(w, "Figure 10: events in the local-similarity map")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %8s\n", "class", "t0(s)", "t1(s)", "chLo", "chHi", "peak")
	for _, e := range events {
		fmt.Fprintf(w, "%-12s %10.1f %10.1f %10d %10d %8.3f\n",
			e.Class, e.StartSec, e.EndSec, e.ChLo, e.ChHi, e.Peak)
	}
	fmt.Fprintf(w, "planted: 2 vehicles, 1 earthquake (t≈%.1fs), 1 persistent vibration\n", 0.42*totalSec)
	return events, nil
}
