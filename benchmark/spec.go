package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specFile is the contract file at the repository root. It is the single
// definition of which workloads and metrics exist, with unit, direction and
// regression bound; the benchmark reads it to know what to print, -check
// reads it for the bounds, and the smoke test holds the two in agreement.
const specFile = "BENCHMARK.json"

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: needs workloads, end_to_end and per_layer", path)
	}
	return &s, nil
}

// metrics returns the metric list a run of the given mode must emit: every
// end-to-end metric untraced, every per-layer metric traced.
func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}
