// Scaling: run the interferometry workload on the hybrid engine across
// several machine layouts and show what changes — I/O request counts,
// per-node memory, and the read-method comparison from §IV-B. This is the
// interactive version of the Figure 8/11 benches.
//
// Run with: go run ./examples/scaling
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/haee"
	"dassa/internal/mpi"
	"dassa/internal/pfs"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "dassa-scaling")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := dasgen.Config{
		Channels: 64, SampleRate: 50, FileSeconds: 2, NumFiles: 12,
		Seed: 5, DType: dasf.Float32,
	}
	if _, err := dasgen.Generate(dir, cfg, nil); err != nil {
		log.Fatal(err)
	}
	cat, err := dass.ScanDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	vcaPath := filepath.Join(dir, "all.vca.dasf")
	if _, err := dass.CreateVCA(vcaPath, cat.Entries()); err != nil {
		log.Fatal(err)
	}
	v, err := dass.OpenView(vcaPath)
	if err != nil {
		log.Fatal(err)
	}
	_, nt := v.Shape()

	// Part 1: read methods under growing rank counts.
	model := pfs.CoriLike()
	fmt.Println("read methods (measured op counts + Cori-model projection):")
	fmt.Printf("%6s %-24s %8s %8s %8s %14s\n", "ranks", "method", "opens", "reads", "bcasts", "projected")
	for _, p := range []int{2, 4, 8} {
		for _, m := range []struct {
			name string
			read func(c *mpi.Comm, v *dass.View) (dass.Block, pfs.Trace)
		}{
			{"collective-per-file", dass.ReadCollectivePerFile},
			{"communication-avoiding", dass.ReadCommAvoiding},
		} {
			var tr pfs.Trace
			if _, err := mpi.Run(p, func(c *mpi.Comm) {
				_, t := m.read(c, v)
				if c.Rank() == 0 {
					tr = t
				}
			}); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%6d %-24s %8d %8d %8d %14v\n",
				p, m.name, tr.Opens, tr.Reads, tr.Broadcasts,
				model.Project(tr).Total().Round(time.Microsecond))
		}
	}

	// Part 2: engine layouts for the interferometry workload.
	params := detect.InterferometryParams{
		Rate: cfg.SampleRate, FilterOrder: 3, CutoffHz: cfg.SampleRate / 8,
		ResampleP: 1, ResampleQ: 2, MasterChannel: 0, MaxLag: 40,
	}
	wl := params.Workload(nt)
	fmt.Println("\nengine layouts (same total cores, different process models):")
	fmt.Printf("%6s %6s %-7s %8s %8s %14s\n", "nodes", "cores", "mode", "opens", "reads", "mem/node")
	for _, layout := range []struct {
		nodes, cores int
		mode         haee.Mode
	}{
		{2, 4, haee.PureMPI},
		{2, 4, haee.Hybrid},
		{4, 2, haee.PureMPI},
		{4, 2, haee.Hybrid},
	} {
		eng := haee.New(haee.Config{Nodes: layout.nodes, CoresPerNode: layout.cores, Mode: layout.mode})
		rep, err := eng.Run(v, wl, "")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %6d %-7s %8d %8d %11.2f MB\n",
			layout.nodes, layout.cores, layout.mode,
			rep.ReadTrace.Opens, rep.ReadTrace.Reads, float64(rep.MemPerNode)/1e6)
	}
	fmt.Println("\nhybrid always issues fewer I/O requests and holds one master-channel")
	fmt.Println("copy per node instead of one per core — the paper's Figure 8 argument.")
}
