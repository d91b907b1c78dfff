package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"dassa/internal/dass"
	"dassa/internal/haee"
	"dassa/internal/obs"
)

// Fig8Row is one (node count, mode) configuration of Figure 8.
type Fig8Row struct {
	Nodes        int
	Mode         haee.Mode
	OOM          bool
	MemPerNode   int64
	Opens        int64
	Reads        int64
	ReadModel    time.Duration // measured trace projected on the Cori model
	ComputeModel time.Duration // work-model compute wall (see workmodel.go)
	WriteWall    time.Duration // measured write of the single output array
	// Phases is the engine's measured per-rank breakdown (max across
	// ranks), the same decomposition the paper plots per rank.
	Phases PhasesJSON `json:"phases"`
}

// RunFig8 reproduces Figure 8: the original pure-MPI ArrayUDF versus the
// hybrid engine (HAEE) on the interferometry workload, sweeping node counts
// with a fixed total dataset. The paper's findings to reproduce: pure MPI
// runs out of memory at the smallest node count (the master channel is
// replicated per core), hybrid issues cores-per-node× fewer I/O calls, and
// write cost is identical.
func RunFig8(o Options) ([]Fig8Row, error) {
	w := o.out()
	cat, err := EnsureDataset(o)
	if err != nil {
		return nil, err
	}
	vcaPath := filepath.Join(o.DataDir, "fig8.vca.dasf")
	if _, err := dass.CreateVCA(vcaPath, cat.Entries()); err != nil {
		return nil, err
	}
	v, err := dass.OpenView(vcaPath)
	if err != nil {
		return nil, err
	}
	params := o.interferometry()
	_, nt := v.Shape()
	wl := params.Workload(nt)
	unit, nch, err := computeProbe(o, v)
	if err != nil {
		return nil, err
	}

	var nodeCounts []int
	for n := 2; n <= o.Nodes; n *= 2 {
		nodeCounts = append(nodeCounts, n)
	}
	if len(nodeCounts) == 0 {
		nodeCounts = []int{o.Nodes}
	}

	// Probe memory footprints (no cap) to choose a node-memory budget that
	// reproduces the paper's shape: the smallest pure-MPI case must not
	// fit, everything else must.
	probe := func(nodes int, mode haee.Mode) (haee.Report, error) {
		eng := haee.New(haee.Config{Nodes: nodes, CoresPerNode: o.CoresPerNode, Mode: mode})
		return eng.Run(v, wl, "")
	}
	mpiSmall, err := probe(nodeCounts[0], haee.PureMPI)
	if err != nil {
		return nil, err
	}
	var nextLargest int64
	if len(nodeCounts) > 1 {
		r, err := probe(nodeCounts[1], haee.PureMPI)
		if err != nil {
			return nil, err
		}
		nextLargest = r.MemPerNode
	}
	hybSmall, err := probe(nodeCounts[0], haee.Hybrid)
	if err != nil {
		return nil, err
	}
	if hybSmall.MemPerNode > nextLargest {
		nextLargest = hybSmall.MemPerNode
	}
	memCap := int64(0)
	if mpiSmall.MemPerNode > nextLargest {
		memCap = (mpiSmall.MemPerNode + nextLargest) / 2
	}

	var rows []Fig8Row
	for _, nodes := range nodeCounts {
		for _, mode := range []haee.Mode{haee.PureMPI, haee.Hybrid} {
			eng := haee.New(haee.Config{
				Nodes: nodes, CoresPerNode: o.CoresPerNode, Mode: mode,
				NodeMemoryBytes: memCap,
			})
			out := filepath.Join(o.DataDir, "fig8.out.dasf")
			rep, err := eng.Run(v, wl, out)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig8Row{
				Nodes:        nodes,
				Mode:         mode,
				OOM:          rep.OOM,
				MemPerNode:   rep.MemPerNode,
				Opens:        rep.ReadTrace.Opens,
				Reads:        rep.ReadTrace.Reads,
				ReadModel:    o.Model.Project(rep.ReadTrace).Total(),
				ComputeModel: modeledWall(unit, nch, nodes*o.CoresPerNode),
				WriteWall:    rep.Phases.Max[obs.PhaseWrite],
				Phases:       phasesOf(rep.Phases),
			})
		}
	}

	hline(w, "Figure 8: MPI ArrayUDF vs Hybrid ArrayUDF (HAEE)")
	fmt.Fprintf(w, "(compute = measured unit cost %v × max channels/worker; see workmodel.go)\n", unit.Round(time.Microsecond))
	fmt.Fprintf(w, "%6s %-7s %5s %12s %8s %8s %12s %12s %12s\n",
		"nodes", "mode", "OOM", "mem/node", "opens", "reads", "read(model)", "compute", "write")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %-7s %5v %12d %8d %8d %12v %12v %12v\n",
			r.Nodes, r.Mode, r.OOM, r.MemPerNode, r.Opens, r.Reads,
			r.ReadModel.Round(time.Microsecond), r.ComputeModel.Round(time.Microsecond),
			r.WriteWall.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "paper: pure MPI OOMs at 91 nodes; HAEE issues %dx fewer I/O calls; writes equal\n", o.CoresPerNode)
	return rows, nil
}
