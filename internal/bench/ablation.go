package bench

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/haee"
	"dassa/internal/mpi"
	"dassa/internal/omp"
	"dassa/internal/pfs"
)

// AblationResult collects the design-choice ablations DESIGN.md calls out.
type AblationResult struct {
	// GhostErrors[p] counts output cells that differ from the serial
	// reference when the stencil's ghost zone is removed, per rank count.
	// With ghosts the count is asserted zero.
	GhostErrors map[int]int
	// ScheduleImbalance is the max/mean per-thread work ratio of the
	// static vs dynamic schedule on a skewed workload.
	StaticImbalance  float64
	DynamicImbalance float64
	// MergeAppend and MergeLocked time Algorithm 1's prefix-merge against
	// a mutex-guarded shared vector.
	MergeAppend time.Duration
	MergeLocked time.Duration
	// StorageIOEff compares strong-scaling I/O efficiency at the largest
	// node count under the disk model vs the burst-buffer model (§VI.E).
	DiskIOEffAtMax float64
	BBIOEffAtMax   float64
	// TunerBest is the layout the auto-tuner picks for a paper-scale run.
	TunerBest haee.Layout
	// EngineOpens compare block-loading strategies at fixed rank count.
	EngineOpensIndependent int64
	EngineOpensCommAvoid   int64
}

// RunAblations measures the design choices the paper (and DESIGN.md)
// credits for DASSA's performance: ghost zones, the static ApplyMT
// schedule, the per-thread-vector merge, and disk vs burst-buffer storage,
// plus the future-work auto-tuner.
func RunAblations(o Options) (AblationResult, error) {
	w := o.out()
	var res AblationResult
	cat, err := EnsureDataset(o)
	if err != nil {
		return res, err
	}
	vcaPath := filepath.Join(o.DataDir, "ablation.vca.dasf")
	if _, err := dass.CreateVCA(vcaPath, cat.Entries()); err != nil {
		return res, err
	}
	v, err := dass.OpenView(vcaPath)
	if err != nil {
		return res, err
	}
	nch, _ := v.Shape()

	hline(w, "Ablations")

	// --- Ghost zones: without them, stencil reads clamp at block edges and
	// partition-boundary cells silently change value.
	params := detect.LocalSimiParams{M: 8, K: 1, L: 2, Stride: 10}
	udf := params.UDFScratch()
	reference := func(ghost int, ranks int) (*dasf.Array2D, error) {
		spec := params.Spec()
		spec.GhostChannels = ghost
		var out *dasf.Array2D
		_, err := mpi.Run(ranks, func(c *mpi.Comm) {
			r := arrayudf.Apply(c, v, spec, func(s *arrayudf.Stencil) float64 { return udf(s, nil) })
			if g := arrayudf.Gather(c, nch, r); g != nil {
				out = g
			}
		})
		return out, err
	}
	ref, err := reference(params.K, 1)
	if err != nil {
		return res, err
	}
	res.GhostErrors = map[int]int{}
	fmt.Fprintf(w, "ghost zones (local similarity, K=%d):\n", params.K)
	fmt.Fprintf(w, "%8s %12s %12s\n", "ranks", "with ghosts", "without")
	for _, p := range []int{2, 4, 8} {
		with, err := reference(params.K, p)
		if err != nil {
			return res, err
		}
		without, err := reference(0, p)
		if err != nil {
			return res, err
		}
		withErrs, withoutErrs := 0, 0
		for i := range ref.Data {
			if with.Data[i] != ref.Data[i] {
				withErrs++
			}
			if without.Data[i] != ref.Data[i] {
				withoutErrs++
			}
		}
		res.GhostErrors[p] = withoutErrs
		fmt.Fprintf(w, "%8d %9d err %9d err\n", p, withErrs, withoutErrs)
		if withErrs != 0 {
			return res, fmt.Errorf("bench: ghosted run diverged from serial (%d cells)", withErrs)
		}
	}

	// --- Schedule: deterministic scheduling analysis on a skewed workload
	// where iteration i costs i units. (Timing the real dynamic schedule
	// would be meaningless on a single-core box: one worker can drain the
	// shared counter before the others are even scheduled.) Static assigns
	// contiguous near-equal ranges — exactly what omp.Static executes — so
	// the later range costs more; dynamic behaves like greedy
	// list-scheduling of fixed-size chunks onto the least-loaded thread.
	const iters = 4096
	const chunk = 16
	threads := o.CoresPerNode
	cost := func(i int) int64 { return int64(i) }
	imbalanceOf := func(work []int64) float64 {
		var sum, maxW int64
		for _, v := range work {
			sum += v
			if v > maxW {
				maxW = v
			}
		}
		return float64(maxW) / (float64(sum) / float64(len(work)))
	}
	staticWork := make([]int64, threads)
	{
		var mu sync.Mutex
		team := omp.NewTeam(threads)
		team.ForThread(iters, func(i, h int) {
			mu.Lock()
			staticWork[h] += cost(i)
			mu.Unlock()
		})
	}
	res.StaticImbalance = imbalanceOf(staticWork)
	dynWork := make([]int64, threads)
	for lo := 0; lo < iters; lo += chunk {
		hi := min(lo+chunk, iters)
		var c int64
		for i := lo; i < hi; i++ {
			c += cost(i)
		}
		least := 0
		for h := 1; h < threads; h++ {
			if dynWork[h] < dynWork[least] {
				least = h
			}
		}
		dynWork[least] += c
	}
	res.DynamicImbalance = imbalanceOf(dynWork)
	fmt.Fprintf(w, "schedule imbalance on skewed work (max/mean, %d threads): static %.3f, dynamic(list-sched) %.3f\n",
		threads, res.StaticImbalance, res.DynamicImbalance)

	// --- Merge strategy: Algorithm 1's per-thread vectors + prefix merge
	// vs a mutex-guarded shared append.
	team := omp.NewTeam(threads)
	const mergeIters = 20000
	body := func(i int, out *[]float64) { *out = append(*out, float64(i)) }
	t0 := time.Now()
	for rep := 0; rep < 20; rep++ {
		omp.ForAppend(team, mergeIters, body)
	}
	res.MergeAppend = time.Since(t0) / 20
	t0 = time.Now()
	for rep := 0; rep < 20; rep++ {
		omp.ForAppendLocked(team, mergeIters, body)
	}
	res.MergeLocked = time.Since(t0) / 20
	fmt.Fprintf(w, "result merge (%d appends): prefix-merge %v, locked %v\n",
		mergeIters, res.MergeAppend.Round(time.Microsecond), res.MergeLocked.Round(time.Microsecond))

	// --- Engine read strategy: the engine's default independent reads vs
	// the communication-avoiding strategy with halo exchange (the paper's
	// two contributions composed). Request counts are measured exactly.
	{
		countOpens := func(strategy arrayudf.ReadStrategy) int64 {
			var opens int64
			_, err := mpi.Run(4, func(c *mpi.Comm) {
				spec := arrayudf.Spec{GhostChannels: 1, ReadStrategy: strategy}
				_, tr, _ := arrayudf.LoadBlock(c, v, spec)
				sum := mpi.Reduce(c, 0, []int64{tr.Opens}, mpi.SumI64)
				if c.Rank() == 0 {
					opens = sum[0]
				}
			})
			if err != nil {
				panic(err)
			}
			return opens
		}
		indep := countOpens(nil)
		ca := countOpens(arrayudf.CommAvoidingRead)
		res.EngineOpensIndependent = indep
		res.EngineOpensCommAvoid = ca
		fmt.Fprintf(w, "engine block loads (4 ranks, ghost=1): independent %d opens, comm-avoiding+halo %d opens\n",
			indep, ca)
	}

	// --- Storage: strong-scaling I/O efficiency at the largest node count,
	// disk vs burst buffer (the paper's §VI.E remedy).
	ioEffAtMax := func(m pfs.Model) float64 {
		var base, last time.Duration
		for i, nodes := range paperNodeCounts {
			tr := pfs.Trace{
				Opens:     int64(nodes) * paperFiles,
				Reads:     int64(nodes) * paperFiles,
				BytesRead: paperFiles * paperFileBytes,
				Processes: nodes,
			}
			t := m.Project(tr).Total()
			if i == 0 {
				base = t
			}
			last = t
		}
		return pfs.Efficiency(base, paperNodeCounts[0], last, paperNodeCounts[len(paperNodeCounts)-1])
	}
	res.DiskIOEffAtMax = ioEffAtMax(pfs.CoriLike())
	res.BBIOEffAtMax = ioEffAtMax(pfs.BurstBufferLike())
	fmt.Fprintf(w, "strong-scaling I/O efficiency at %d nodes: disk %.1f%%, burst buffer %.1f%%\n",
		paperNodeCounts[len(paperNodeCounts)-1], res.DiskIOEffAtMax, res.BBIOEffAtMax)

	// --- Auto-tuner (paper future work): pick a layout for a paper-scale
	// interferometry run.
	unit, _, err := computeProbe(o, v)
	if err != nil {
		return res, err
	}
	best, candidates, err := haee.SuggestLayout(haee.TunerInput{
		TotalBytes:   paperFiles * paperFileBytes,
		Channels:     paperChannels,
		Files:        paperFiles,
		UnitCost:     unit,
		SharedBytes:  8 << 20,
		MaxNodes:     2048,
		CoresPerNode: paperCores,
		Model:        o.Model,
	})
	if err != nil {
		return res, err
	}
	res.TunerBest = best
	fmt.Fprintf(w, "auto-tuner (paper-scale interferometry): best = %v (%d candidates)\n",
		best, len(candidates))
	return res, nil
}
