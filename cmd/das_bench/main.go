// Command das_bench regenerates the DASSA paper's evaluation tables and
// figures (§VI) at laptop scale. Each experiment runs the real storage and
// analysis code, prints measured wall times and operation counts, and
// projects the operation traces onto a Cori-like hardware model so the
// paper-scale shapes are visible. See EXPERIMENTS.md for the
// paper-vs-measured record.
//
// Examples:
//
//	das_bench                      # run everything
//	das_bench -exp fig7            # just the Figure 7 read comparison
//	das_bench -channels 256 -files 48 -exp fig8
//	das_bench -exp table1 -json results.json   # machine-readable results
//	das_bench -json -                          # whole suite as JSON on stdout
package main

import (
	"flag"
	"io"
	"log"
	"os"

	"dassa/internal/bench"
	"dassa/internal/pfs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("das_bench: ")
	o := bench.Defaults()
	var (
		exp      = flag.String("exp", "all", "experiment: all | table1 | table2 | fig6 | fig7 | fig8 | fig9 | fig10 | fig11 | ablation | detectors")
		model    = flag.String("model", "cori", "hardware model for projections: cori | burstbuffer")
		jsonPath = flag.String("json", "", "also write machine-readable results to this file (- for stdout)")
	)
	flag.StringVar(&o.DataDir, "dir", o.DataDir, "working directory for the generated dataset")
	flag.IntVar(&o.Channels, "channels", o.Channels, "synthetic fiber channels")
	flag.IntVar(&o.Files, "files", o.Files, "synthetic file count")
	flag.Float64Var(&o.SampleRate, "rate", o.SampleRate, "sampling rate (Hz)")
	flag.Float64Var(&o.FileSeconds, "seconds", o.FileSeconds, "seconds per file")
	flag.Int64Var(&o.Seed, "seed", o.Seed, "random seed")
	flag.IntVar(&o.Ranks, "ranks", o.Ranks, "processes for read experiments")
	flag.IntVar(&o.Nodes, "nodes", o.Nodes, "max node count for sweeps")
	flag.IntVar(&o.CoresPerNode, "cores", o.CoresPerNode, "cores per node")
	flag.Parse()

	switch *model {
	case "cori":
		o.Model = pfs.CoriLike()
	case "burstbuffer":
		o.Model = pfs.BurstBufferLike()
	default:
		log.Fatalf("unknown -model %q", *model)
	}
	if _, ok := bench.Lookup(*exp); !ok && *exp != "all" {
		log.Fatalf("unknown -exp %q", *exp)
	}

	if *jsonPath != "" {
		// JSON mode: when the document goes to stdout, the text tables
		// must not — they would corrupt the stream.
		var out io.Writer = os.Stdout
		closeOut := func() error { return nil }
		if *jsonPath == "-" {
			o.Out = io.Discard
		} else {
			f, err := os.Create(*jsonPath)
			if err != nil {
				log.Fatal(err)
			}
			// Close is checked after the write: a deferred unchecked Close
			// would drop the one error that says the report never landed.
			closeOut = f.Close
			out = f
		}
		rep, err := bench.RunJSON(o, *exp)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteJSON(out); err != nil {
			log.Fatal(err)
		}
		if err := closeOut(); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *exp == "all" {
		if err := bench.RunAll(o); err != nil {
			log.Fatal(err)
		}
		return
	}
	e, _ := bench.Lookup(*exp)
	if _, err := e.Run(o); err != nil {
		log.Fatal(err)
	}
}
