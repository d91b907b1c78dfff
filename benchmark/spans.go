package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Spans are recorded by the benchmark around its calls into each layer; no
// span comes from inside the program. A span's name is "<layer>.<step>",
// the layer being the package that does the work.

type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = operation root
	Op       int    `json:"op"`     // operation id shared by one operation's spans
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the tracer was created
	EndNS    int64  `json:"end_ns"`
	// Counts are the program's public counters read at this span's
	// boundaries (deltas across the span), so ratios are measured where
	// the work happens.
	Counts map[string]float64 `json:"counts,omitempty"`
}

type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	nextOp   int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// spanRef is an open span. A nil *spanRef is valid and records nothing, so
// the untraced pass runs the same code with tracing off.
type spanRef struct {
	tr *tracer
	i  int
}

// op opens the root span of a new operation.
func (t *tracer) op(name string) *spanRef {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextOp++
	op := t.nextOp
	t.mu.Unlock()
	return t.open(0, op, name)
}

func (t *tracer) open(parent, op int, name string) *spanRef {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op,
		Workload: t.workload, Name: name, StartNS: now})
	return &spanRef{tr: t, i: len(t.spans) - 1}
}

// child opens a span under s.
func (s *spanRef) child(name string) *spanRef {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	id, op := s.tr.spans[s.i].ID, s.tr.spans[s.i].Op
	s.tr.mu.Unlock()
	return s.tr.open(id, op, name)
}

// end closes the span. counts are key, value pairs.
func (s *spanRef) end(counts ...any) {
	if s == nil {
		return
	}
	now := time.Since(s.tr.t0).Nanoseconds()
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	sp := &s.tr.spans[s.i]
	sp.EndNS = now
	for i := 0; i+1 < len(counts); i += 2 {
		if sp.Counts == nil {
			sp.Counts = map[string]float64{}
		}
		switch v := counts[i+1].(type) {
		case int:
			sp.Counts[counts[i].(string)] = float64(v)
		case int64:
			sp.Counts[counts[i].(string)] = float64(v)
		case float64:
			sp.Counts[counts[i].(string)] = v
		}
	}
}

// step runs fn inside a child span of s and returns its error.
func (s *spanRef) step(name string, fn func() error) error {
	c := s.child(name)
	err := fn()
	c.end()
	return err
}

// selfTimes returns every span's self time: its duration minus the part of
// that interval its direct children cover (overlapping children — the two
// members a view reads concurrently — are unioned, not summed).
func (t *tracer) selfTimes() []int64 {
	kids := map[int][][2]int64{}
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], [2]int64{sp.StartNS, sp.EndNS})
		}
	}
	self := make([]int64, len(t.spans))
	for i, sp := range t.spans {
		iv := kids[sp.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, edge := int64(0), sp.StartNS
		for _, k := range iv {
			lo, hi := max(k[0], edge), min(k[1], sp.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = sp.EndNS - sp.StartNS - covered
	}
	return self
}

// layerOf returns the layer part of a span name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// walkSummary reduces the recorded spans. Every operation root has one
// "e2e.*" child — the real end-to-end call — and replay children that walk
// the same input through the layers one public function at a time.
type walkSummary struct {
	// Coverage is Σ replay self time ÷ Σ e2e wall: 1.0 means the layer
	// numbers add up to the end-to-end number.
	Coverage float64
	// LayerSelfMS is the replay self time per layer, per operation.
	LayerSelfMS map[string]float64
	// StepMS is the median duration of each named span below the roots.
	StepMS map[string]float64
	Ops    int
}

func (t *tracer) summary() walkSummary {
	self := t.selfTimes()
	byID := map[int]int{}
	for i, sp := range t.spans {
		byID[sp.ID] = i
	}
	// A span belongs to the replay unless it or an ancestor is the e2e call.
	inE2E := func(i int) bool {
		for {
			if strings.HasPrefix(t.spans[i].Name, "e2e.") {
				return true
			}
			p := t.spans[i].Parent
			if p == 0 {
				return false
			}
			i = byID[p]
		}
	}
	sum := walkSummary{LayerSelfMS: map[string]float64{}, StepMS: map[string]float64{}}
	var e2eNS, replayNS float64
	steps := map[string][]float64{}
	for i, sp := range t.spans {
		switch {
		case sp.Parent == 0:
			sum.Ops++
		case strings.HasPrefix(sp.Name, "e2e."):
			e2eNS += float64(sp.EndNS - sp.StartNS)
		case !inE2E(i):
			replayNS += float64(self[i])
			sum.LayerSelfMS[layerOf(sp.Name)] += float64(self[i]) / 1e6
		}
		if sp.Parent != 0 {
			steps[sp.Name] = append(steps[sp.Name], float64(sp.EndNS-sp.StartNS)/1e6)
		}
	}
	sum.Coverage = ratio(replayNS, e2eNS)
	for l := range sum.LayerSelfMS {
		sum.LayerSelfMS[l] = ratio(sum.LayerSelfMS[l], float64(sum.Ops))
	}
	for name, xs := range steps {
		sum.StepMS[name] = median(xs)
	}
	return sum
}
