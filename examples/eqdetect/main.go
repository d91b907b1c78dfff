// Earthquake detection with local similarity (the paper's Algorithm 2 and
// Figure 10 scenario): generate a record containing two moving vehicles, an
// earthquake, and a persistent vibration; compute the local-similarity map
// with the hybrid engine; detect and classify the events; and render a
// coarse ASCII picture of the map.
//
// Run with: go run ./examples/eqdetect
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/haee"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "dassa-eqdetect")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A 6-minute-analogue record: 64 channels, 50 Hz, eight 3-second files.
	cfg := dasgen.Config{
		Channels: 64, SampleRate: 50, FileSeconds: 3, NumFiles: 8,
		Seed: 42, DType: dasf.Float32,
	}
	events := dasgen.Fig10Events(cfg)
	if _, err := dasgen.Generate(dir, cfg, events); err != nil {
		log.Fatal(err)
	}
	fmt.Println("planted events:")
	for _, ev := range events {
		fmt.Printf("  %s\n", ev.Describe())
	}

	cat, err := dass.ScanDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	vcaPath := filepath.Join(dir, "record.vca.dasf")
	if _, err := dass.CreateVCA(vcaPath, cat.Entries()); err != nil {
		log.Fatal(err)
	}
	v, err := dass.OpenView(vcaPath)
	if err != nil {
		log.Fatal(err)
	}

	// Algorithm 2 — the registry's default operation at its defaults for this
	// rate — over the whole record with the hybrid engine.
	op, _ := detect.Lookup(detect.DefaultOp)
	_, nt := v.Shape()
	eng := haee.New(haee.Config{Nodes: 2, CoresPerNode: 4, Mode: haee.Hybrid})
	rep, err := eng.Run(v, op.Default(cfg.SampleRate, nt).Workload(nt), "")
	if err != nil {
		log.Fatal(err)
	}
	sim := rep.Output

	// ASCII rendering: channels down, time across, darker = more similar.
	const rows, cols = 16, 72
	shades := []byte(" .:-=+*#%@")
	fmt.Printf("\nlocal-similarity map (%d×%d, downsampled):\n", sim.Channels, sim.Samples)
	for r := 0; r < rows; r++ {
		line := make([]byte, cols)
		for c := 0; c < cols; c++ {
			chLo := r * sim.Channels / rows
			chHi := (r + 1) * sim.Channels / rows
			tLo := c * sim.Samples / cols
			tHi := (c + 1) * sim.Samples / cols
			var sum float64
			var n int
			for ch := chLo; ch < chHi; ch++ {
				for t := tLo; t < tHi; t++ {
					sum += sim.At(ch, t)
					n++
				}
			}
			v := sum / float64(n)
			idx := int(v * float64(len(shades)))
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			if idx < 0 {
				idx = 0
			}
			line[c] = shades[idx]
		}
		fmt.Printf("ch%4d |%s|\n", r*sim.Channels/rows, line)
	}

	// Detection + classification against the planted truth.
	regions := op.Events(sim, detect.DefaultThreshold)
	totalSec := cfg.FileSeconds * float64(cfg.NumFiles)
	secPerIdx := totalSec / float64(sim.Samples)
	fmt.Printf("\ndetected %d events:\n", len(regions))
	for _, r := range regions {
		span := r.ChHi - r.ChLo
		dur := float64(r.THi-r.TLo) * secPerIdx
		class := "vehicle"
		switch {
		case span > sim.Channels/2:
			class = "earthquake"
		case dur > 0.6*totalSec:
			class = "vibration"
		}
		fmt.Printf("  %-10s t=[%5.1fs,%5.1fs) channels=[%2d,%2d) peak=%.3f\n",
			class, float64(r.TLo)*secPerIdx, float64(r.THi)*secPerIdx, r.ChLo, r.ChHi, r.Peak)
	}
	if len(regions) == 0 {
		log.Fatal("no events detected — detection failed")
	}
}
