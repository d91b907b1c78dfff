package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRunJSONSingleExperiment(t *testing.T) {
	o := testOptions(t)
	rep, err := RunJSON(o, "table1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Experiments) != 1 {
		t.Fatalf("got %d experiments, want 1", len(rep.Experiments))
	}
	rec := rep.Experiments[0]
	if rec.Name != "table1" || rec.Title == "" {
		t.Fatalf("record identity: %+v", rec)
	}
	if rep.Params.Channels != o.Channels || rep.Params.Files != o.Files {
		t.Fatalf("params not echoed: %+v", rep.Params)
	}

	// The document must round-trip and keep the typed rows.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back struct {
		Suite       string `json:"suite"`
		Experiments []struct {
			Name   string `json:"name"`
			WallMS int64  `json:"wall_ms"`
			Rows   []struct {
				Scheme string `json:"Scheme"`
			} `json:"rows"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("decode: %v\n%s", err, buf.String())
	}
	if back.Suite != "dassa-bench" || len(back.Experiments) != 1 {
		t.Fatalf("round trip: %+v", back)
	}
	rows := back.Experiments[0].Rows
	if len(rows) != 2 || rows[0].Scheme != "RCA" || rows[1].Scheme != "VCA" {
		t.Fatalf("table1 rows lost in JSON: %+v", rows)
	}
}

func TestRunJSONPhaseFields(t *testing.T) {
	// Figs. 7–9 embed the common read/exchange/compute/write breakdown;
	// the JSON document must carry it with stable field names.
	o := testOptions(t)
	rep, err := RunJSON(o, "fig7")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back struct {
		Experiments []struct {
			Rows []struct {
				Method string `json:"Method"`
				Phases *struct {
					ReadMS     float64 `json:"read_ms"`
					ExchangeMS float64 `json:"exchange_ms"`
					ComputeMS  float64 `json:"compute_ms"`
					WriteMS    float64 `json:"write_ms"`
				} `json:"phases"`
			} `json:"rows"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("decode: %v\n%s", err, buf.String())
	}
	if len(back.Experiments) != 1 || len(back.Experiments[0].Rows) != 3 {
		t.Fatalf("fig7 shape lost in JSON: %+v", back)
	}
	for _, r := range back.Experiments[0].Rows {
		if r.Phases == nil {
			t.Fatalf("row %q lacks the phases object", r.Method)
		}
		if r.Phases.ReadMS <= 0 {
			t.Errorf("row %q: read_ms = %v, want > 0", r.Method, r.Phases.ReadMS)
		}
		if r.Phases.ComputeMS != 0 || r.Phases.WriteMS != 0 {
			t.Errorf("row %q: pure read strategy reports compute/write time: %+v",
				r.Method, *r.Phases)
		}
	}
	// The collective and comm-avoiding VCA reads exchange data; the RCA
	// independent read never communicates.
	rows := back.Experiments[0].Rows
	for _, r := range rows[:2] {
		if r.Phases.ExchangeMS <= 0 {
			t.Errorf("row %q: exchange_ms = %v, want > 0", r.Method, r.Phases.ExchangeMS)
		}
	}
	if last := rows[2]; last.Phases.ExchangeMS != 0 {
		t.Errorf("row %q: exchange_ms = %v, want 0", last.Method, last.Phases.ExchangeMS)
	}
}

func TestRunJSONUnknownExperiment(t *testing.T) {
	if _, err := RunJSON(testOptions(t), "fig99"); err == nil {
		t.Fatal("want error for unknown experiment")
	}
}

func TestRegistryCoversSwitchNames(t *testing.T) {
	// The CLI's -exp vocabulary is exactly the registry; a new experiment
	// added to one but not the other should fail here.
	want := []string{"table1", "table2", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "ablation", "detectors"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i].Name != name {
			t.Errorf("registry[%d] = %q, want %q", i, got[i].Name, name)
		}
		if e, ok := Lookup(name); !ok || e.Name != name {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
	if _, ok := Lookup("all"); ok {
		t.Error(`"all" must not be a registry entry`)
	}
}
