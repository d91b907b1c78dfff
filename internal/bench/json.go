package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Experiment is one entry in the suite registry: a stable machine name, the
// human title RunAll prints, and a runner returning the experiment's typed
// rows. The text path (RunAll) and the JSON path (RunJSON) share this
// registry so they can never drift apart.
type Experiment struct {
	Name  string
	Title string
	Run   func(Options) (any, error)
}

// Experiments returns the suite in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table I (RCA vs VCA)", func(o Options) (any, error) { return RunTable1(o) }},
		{"table2", "Table II (DasLib semantics)", func(o Options) (any, error) { return RunTable2(o) }},
		{"fig6", "Figure 6 (search & merge)", func(o Options) (any, error) { return RunFig6(o) }},
		{"fig7", "Figure 7 (read methods)", func(o Options) (any, error) { return RunFig7(o) }},
		{"fig8", "Figure 8 (hybrid vs MPI)", func(o Options) (any, error) { return RunFig8(o) }},
		{"fig9", "Figure 9 (DASSA vs MATLAB)", func(o Options) (any, error) { return RunFig9(o) }},
		{"fig10", "Figure 10 (event detection)", func(o Options) (any, error) { return RunFig10(o) }},
		{"fig11", "Figure 11 (scaling)", func(o Options) (any, error) { return RunFig11(o) }},
		{"ablation", "Ablations", func(o Options) (any, error) { return RunAblations(o) }},
		{"detectors", "Detector comparison", func(o Options) (any, error) { return RunDetectors(o) }},
	}
}

// Lookup finds one experiment by machine name ("all" is not an experiment).
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// ParamsJSON records the knobs a run used, so a result file is
// self-describing.
type ParamsJSON struct {
	Channels     int     `json:"channels"`
	Files        int     `json:"files"`
	SampleRate   float64 `json:"sample_rate_hz"`
	FileSeconds  float64 `json:"file_seconds"`
	Seed         int64   `json:"seed"`
	Ranks        int     `json:"ranks"`
	Nodes        int     `json:"nodes"`
	CoresPerNode int     `json:"cores_per_node"`
}

// Record is one experiment's machine-readable result: its registry name,
// wall time, and the same typed rows the text tables are printed from.
type Record struct {
	Name   string `json:"name"`
	Title  string `json:"title"`
	WallMS int64  `json:"wall_ms"`
	Rows   any    `json:"rows"`
}

// Report is the top-level das_bench -json document.
type Report struct {
	Suite       string     `json:"suite"`
	Params      ParamsJSON `json:"params"`
	Experiments []Record   `json:"experiments"`
}

func (o Options) params() ParamsJSON {
	return ParamsJSON{
		Channels:     o.Channels,
		Files:        o.Files,
		SampleRate:   o.SampleRate,
		FileSeconds:  o.FileSeconds,
		Seed:         o.Seed,
		Ranks:        o.Ranks,
		Nodes:        o.Nodes,
		CoresPerNode: o.CoresPerNode,
	}
}

// RunJSON executes the named experiments ("all" or nil → the whole suite)
// and returns the machine-readable report. The experiments still print
// their text tables to o.Out; silence them with io.Discard.
func RunJSON(o Options, names ...string) (*Report, error) {
	var exps []Experiment
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		exps = Experiments()
	} else {
		for _, n := range names {
			e, ok := Lookup(n)
			if !ok {
				return nil, fmt.Errorf("bench: unknown experiment %q", n)
			}
			exps = append(exps, e)
		}
	}
	rep := &Report{Suite: "dassa-bench", Params: o.params()}
	for _, e := range exps {
		t0 := time.Now()
		rows, err := e.Run(o)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.Title, err)
		}
		rep.Experiments = append(rep.Experiments, Record{
			Name:   e.Name,
			Title:  e.Title,
			WallMS: time.Since(t0).Milliseconds(),
			Rows:   rows,
		})
	}
	return rep, nil
}

// WriteJSON renders a report with stable indentation.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
