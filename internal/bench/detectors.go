package bench

import (
	"fmt"
	"math"
	"sort"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/daslib"
	"dassa/internal/detect"
	"dassa/internal/haee"
	"dassa/internal/omp"
)

// DetectorRow is one (scenario, method) measurement of the detector
// comparison, using each method's deployment semantics: STA/LTA declares
// an event when any channel's ratio crosses the trigger threshold;
// local similarity declares the regions its event scan finds. Contrast is
// the method's raw statistic (max/median) for reference.
type DetectorRow struct {
	Scenario string
	Method   string
	Events   int
	Contrast float64
}

// RunDetectors compares the classical single-channel STA/LTA trigger with
// the paper's local-similarity detector (Algorithm 2, from ref [18]) on
// two scenarios: incoherent single-channel bursts (instrument glitches /
// local noise — should NOT trigger) and a coherent earthquake (should).
// The headline numbers are the declared events per scenario: STA/LTA
// fires on any energy burst, so it false-triggers on the glitches, while
// local similarity requires cross-channel coherence and declares only the
// earthquake — which is why the paper's case study uses it.
func RunDetectors(o Options) ([]DetectorRow, error) {
	w := o.out()
	base := dasgen.Config{
		Channels: 32, SampleRate: o.SampleRate, FileSeconds: 20, NumFiles: 1,
		Seed: o.Seed, NoiseAmp: 0.5,
	}

	// Scenario A: five strong single-channel glitch bursts.
	var burstEvents []dasgen.Event
	for b := 0; b < 5; b++ {
		burstEvents = append(burstEvents, dasgen.Glitch{
			Channel: 5 + 4*b, StartSec: 2 + 3*float64(b), DurSec: 0.5, Amp: 6,
		})
	}
	bursts, err := dasgen.GenerateFileArray(base, burstEvents, 0)
	if err != nil {
		return nil, err
	}

	// Scenario B: one coherent earthquake.
	quakeEvents := []dasgen.Event{dasgen.Earthquake{
		OriginSec: 10, EpicenterChannel: 16,
		PVel: 300, SVel: 100, Amp: 6, FreqHz: 6, DurSec: 1.5,
	}}
	quake, err := dasgen.GenerateFileArray(base, quakeEvents, 0)
	if err != nil {
		return nil, err
	}

	stalta := detect.STALTAParams{
		STASamples: max(int(base.SampleRate/5), 2),
		LTASamples: int(4 * base.SampleRate),
		Stride:     5,
	}
	simi := detect.LocalSimiParams{
		M: int(base.SampleRate / 4), K: 1, L: 4, Stride: 5,
	}
	if err := stalta.Validate(base.Channels, bursts.Samples); err != nil {
		return nil, err
	}
	if err := simi.Validate(base.Channels, bursts.Samples); err != nil {
		return nil, err
	}
	// Both detectors run as the UDFs the engine runs, swept over the whole
	// array on one thread.
	sweep := func(data *dasf.Array2D, spec arrayudf.Spec, udf func(*arrayudf.Stencil, *daslib.Scratch) float64) *dasf.Array2D {
		blk := arrayudf.Block{Data: data, ChLo: 0, ChHi: data.Channels}
		return haee.ApplyMTScratch(omp.NewTeam(1), blk, spec, data.Samples, udf)
	}

	// STA/LTA deployment: a channel whose ratio crosses the trigger
	// threshold declares an event (per-station triggering).
	const staltaTrigger = 8.0
	staltaStat := func(data *dasf.Array2D) (int, float64) {
		ratios := sweep(data, stalta.Spec(), stalta.UDFScratch())
		events := 0
		for ch := 0; ch < data.Channels; ch++ {
			if detect.MaxRatio(ratios.Row(ch)) > staltaTrigger {
				events++
			}
		}
		return events, contrast(ratios.Data)
	}
	// Local similarity deployment: scan the similarity map for coherent
	// regions (what Figure 10 does).
	simiStat := func(data *dasf.Array2D) (int, float64) {
		sim := sweep(data, simi.Spec(), simi.UDFScratch())
		// Statistical exceedances alone would flag noise blips (any 2.5σ
		// scan fires occasionally); a coherent event additionally drives
		// the mean similarity toward 1, so declare only regions whose peak
		// clears an absolute coherence floor.
		const coherenceFloor = 0.7
		events := 0
		for _, r := range detect.FindEventsBanded(sim, 2.5, data.Channels/4) {
			if r.Peak >= coherenceFloor {
				events++
			}
		}
		return events, contrast(sim.Data)
	}

	burstEventsS, burstC := staltaStat(bursts)
	burstEventsL, burstCL := simiStat(bursts)
	quakeEventsS, quakeC := staltaStat(quake)
	quakeEventsL, quakeCL := simiStat(quake)
	rows := []DetectorRow{
		{"incoherent bursts", "STA/LTA", burstEventsS, burstC},
		{"incoherent bursts", "local similarity", burstEventsL, burstCL},
		{"coherent earthquake", "STA/LTA", quakeEventsS, quakeC},
		{"coherent earthquake", "local similarity", quakeEventsL, quakeCL},
	}

	hline(w, "Detector comparison: STA/LTA vs local similarity (extension)")
	fmt.Fprintf(w, "%-20s %-18s %8s %10s\n", "scenario", "method", "events", "contrast")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %-18s %8d %10.2f\n", r.Scenario, r.Method, r.Events, r.Contrast)
	}
	fmt.Fprintf(w, "STA/LTA triggers on the incoherent bursts (false positives); local similarity\n")
	fmt.Fprintf(w, "requires cross-channel coherence and stays quiet — ref [18]'s motivation.\n")
	return rows, nil
}

// contrast returns max / median of the statistic series. The median is the
// background estimate: an event can occupy several percent of the samples
// (a quake sweeping every channel), which would contaminate a high
// percentile but not the median.
func contrast(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	med := sorted[len(sorted)/2]
	maxV := sorted[len(sorted)-1]
	if med <= 0 {
		return math.Inf(1)
	}
	return maxV / med
}

// eventsOf returns the declared-event count for (scenario, method).
func eventsOf(rows []DetectorRow, scenario, method string) int {
	for _, r := range rows {
		if r.Scenario == scenario && r.Method == method {
			return r.Events
		}
	}
	return -1
}
