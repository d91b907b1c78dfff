package haee

import (
	"fmt"
	"time"

	"dassa/internal/dass"
	"dassa/internal/pfs"
)

// The paper's future work (§VIII) includes "how to automatically select
// system settings, such as the number of nodes, to run the analysis code".
// SuggestLayout is that tuner: given the dataset's dimensions, a measured
// per-channel compute cost, and a storage model, it enumerates candidate
// machine layouts, predicts each one's read and compute time with the same
// models the benches use, drops layouts that exceed the node-memory
// budget, and returns the fastest.

// TunerInput describes a planned analysis run.
type TunerInput struct {
	// TotalBytes is the dataset size on disk; Channels × Files shape it.
	TotalBytes int64
	Channels   int
	Files      int
	// UnitCost is the measured serial compute cost per channel.
	UnitCost time.Duration
	// SharedBytes is the per-rank shared payload (e.g. the FFT'd master
	// channel); zero when the workload has none.
	SharedBytes int64
	// NodeMemoryBytes caps a node's footprint; zero means unlimited.
	NodeMemoryBytes int64
	// MaxNodes and CoresPerNode bound the candidate layouts.
	MaxNodes     int
	CoresPerNode int
	// Model prices the I/O.
	Model pfs.Model
}

func (in TunerInput) validate() error {
	if in.TotalBytes <= 0 || in.Channels <= 0 || in.Files <= 0 {
		return fmt.Errorf("haee: tuner needs positive data dimensions, got %+v", in)
	}
	if in.UnitCost <= 0 {
		return fmt.Errorf("haee: tuner needs a measured positive unit cost")
	}
	if in.MaxNodes < 1 || in.CoresPerNode < 1 {
		return fmt.Errorf("haee: tuner needs ≥1 node and core")
	}
	return nil
}

// Layout is one candidate configuration with its predictions.
type Layout struct {
	Nodes        int
	CoresPerNode int
	Mode         Mode
	ReadTime     time.Duration
	ComputeTime  time.Duration
	MemPerNode   int64
	// Feasible is false when the layout exceeds the memory budget.
	Feasible bool
}

// Total returns the predicted end-to-end time.
func (l Layout) Total() time.Duration { return l.ReadTime + l.ComputeTime }

func (l Layout) String() string {
	return fmt.Sprintf("%d×%d %s: read=%v compute=%v mem/node=%dB feasible=%v",
		l.Nodes, l.CoresPerNode, l.Mode, l.ReadTime.Round(time.Microsecond),
		l.ComputeTime.Round(time.Microsecond), l.MemPerNode, l.Feasible)
}

// predict builds one candidate's estimates.
func predict(in TunerInput, nodes int, mode Mode) Layout {
	ranks := nodes
	ranksPerNode := 1
	if mode == PureMPI {
		ranks = nodes * in.CoresPerNode
		ranksPerNode = in.CoresPerNode
	}
	// Read pattern: every rank reads its channel slab from every file,
	// plus one master-channel read per rank when there is shared payload.
	tr := pfs.Trace{
		Opens:     int64(ranks) * int64(in.Files),
		Reads:     int64(ranks) * int64(in.Files),
		BytesRead: in.TotalBytes,
		Processes: ranks,
	}
	if in.SharedBytes > 0 {
		tr.Opens += int64(ranks) * int64(in.Files)
		tr.Reads += int64(ranks) * int64(in.Files)
		tr.BytesRead += int64(ranks) * in.SharedBytes
	}
	// Memory: a node hosts ranksPerNode ranks, each holding its block plus
	// its own shared copy.
	blockBytes := in.TotalBytes / int64(ranks)
	mem := int64(ranksPerNode) * (blockBytes + in.SharedBytes)
	l := Layout{
		Nodes:        nodes,
		CoresPerNode: in.CoresPerNode,
		Mode:         mode,
		ReadTime:     in.Model.Project(tr).Total(),
		ComputeTime:  ComputeWall(in.UnitCost, in.Channels, nodes*in.CoresPerNode),
		MemPerNode:   mem,
		Feasible:     in.NodeMemoryBytes <= 0 || mem <= in.NodeMemoryBytes,
	}
	return l
}

// ComputeWall is the work model's compute wall time for channels split over
// workers: max per-worker channel count × unit cost. The tuner predicts with
// it and the paper's scaling figures (internal/bench) model with it.
func ComputeWall(unit time.Duration, channels, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	maxPer := 0
	for r := 0; r < workers; r++ {
		lo, hi := dass.Partition(channels, workers, r)
		if hi-lo > maxPer {
			maxPer = hi - lo
		}
	}
	return time.Duration(int64(unit) * int64(maxPer))
}

// SuggestLayout returns the fastest feasible layout and the full candidate
// list (for display). Candidates sweep node counts 1..MaxNodes (doubling)
// in both execution modes.
func SuggestLayout(in TunerInput) (Layout, []Layout, error) {
	if err := in.validate(); err != nil {
		return Layout{}, nil, err
	}
	var candidates []Layout
	for nodes := 1; nodes <= in.MaxNodes; nodes *= 2 {
		for _, mode := range []Mode{Hybrid, PureMPI} {
			candidates = append(candidates, predict(in, nodes, mode))
		}
	}
	best := Layout{}
	found := false
	for _, c := range candidates {
		if !c.Feasible {
			continue
		}
		if !found || c.Total() < best.Total() {
			best = c
			found = true
		}
	}
	if !found {
		return Layout{}, candidates, fmt.Errorf("haee: no layout fits the %d-byte node budget", in.NodeMemoryBytes)
	}
	return best, candidates, nil
}
