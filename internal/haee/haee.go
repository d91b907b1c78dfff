// Package haee is DASSA's Hybrid ArrayUDF Execution Engine (§V.B): the
// extension of ArrayUDF from a pure-MPI model (one process per core) to a
// hybrid model (one process per node, OpenMP-style threads inside). The two
// wins the paper claims are reproduced structurally here: threads on a node
// share one copy of node-wide data (the FFT'd master channel that pure MPI
// must replicate per core), and each node issues one set of I/O requests
// instead of one per core.
//
// The apply loops are the paper's Algorithm 1 (ApplyMT): a thread team
// evaluates the UDF over the node's block. Both write straight into the
// preallocated output — point workloads a cell at a time (ApplyMTScratch),
// row workloads a channel at a time (ApplyRowsInto): the output extent is
// known before the loop starts and every index goes to exactly one thread,
// so Algorithm 1's per-thread result vectors and their prefix-sum merge have
// nothing left to do. The merge itself is omp.ForAppend, for loops whose
// output size is not known up front; the merge ablation measures it.
package haee

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/mpi"
	"dassa/internal/obs"
	"dassa/internal/obs/trace"
	"dassa/internal/omp"
	"dassa/internal/pfs"
)

// Mode selects the execution model.
type Mode int

const (
	// PureMPI is the original ArrayUDF layout: Nodes×CoresPerNode MPI
	// ranks, each single-threaded with its own block, shared data copy,
	// and I/O requests.
	PureMPI Mode = iota
	// Hybrid is HAEE: one MPI rank per node running CoresPerNode threads
	// that share the node's block and shared data.
	Hybrid
)

func (m Mode) String() string {
	switch m {
	case PureMPI:
		return "mpi"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes the simulated machine layout for a run.
type Config struct {
	Nodes        int
	CoresPerNode int
	Mode         Mode
	// NodeMemoryBytes, when positive, aborts the run with Report.OOM when
	// the estimated per-node footprint exceeds it (the paper's 91-node
	// pure-MPI out-of-memory case).
	NodeMemoryBytes int64
	// ReadStrategy overrides how ranks load their blocks (default:
	// independent reads, the original ArrayUDF behaviour).
	ReadStrategy arrayudf.ReadStrategy
	// FailPolicy decides whether a member file that stays bad after retries
	// aborts the world (default) or degrades into NaN-masked gaps plus a
	// QualityReport on the run's Report.
	FailPolicy dass.FailPolicy
}

func (cfg Config) validate() error {
	if cfg.Nodes < 1 || cfg.CoresPerNode < 1 {
		return fmt.Errorf("haee: config needs ≥1 node and ≥1 core, got %d×%d", cfg.Nodes, cfg.CoresPerNode)
	}
	return nil
}

// ranks returns the MPI world size and per-rank thread count for the mode.
func (cfg Config) ranks() (worldSize, threads int) {
	if cfg.Mode == Hybrid {
		return cfg.Nodes, cfg.CoresPerNode
	}
	return cfg.Nodes * cfg.CoresPerNode, 1
}

// Report summarizes a run: wall-clock per phase (max across ranks), the
// global I/O trace, the memory estimate that decides OOM, and on rank 0
// the assembled output.
type Report struct {
	Mode         Mode
	Nodes        int
	CoresPerNode int

	// Phases is the run's one timing: read (the readers' storage calls),
	// exchange (their broadcasts, all-to-alls and halo messages), compute
	// and write, each the slowest rank's — the form of Figs. 8–10.
	Phases obs.PhaseReport

	ReadTrace  pfs.Trace
	WriteTrace pfs.Trace

	// MemPerNode estimates one node's footprint: every rank on the node
	// holds its block plus its own copy of the shared payload.
	MemPerNode int64
	OOM        bool

	// Quality accounts for data lost to degraded reads (rank 0 only, under
	// dass.FailDegrade; nil otherwise).
	Quality *dass.QualityReport

	Output *dasf.Array2D
}

// Total returns the end-to-end wall time: the phases, back to back.
func (r Report) Total() time.Duration {
	var t time.Duration
	for _, d := range r.Phases.Max {
		t += d
	}
	return t
}

// Engine executes workloads under a machine layout.
type Engine struct {
	cfg Config
}

// New creates an engine; the config is validated at run time.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

// teamScratch checks one scratch arena and one reusable stencil out per
// worker thread; release returns the arenas to the process pool.
func teamScratch(team *omp.Team, blk arrayudf.Block) (scratches []*daslib.Scratch, stencils []*arrayudf.Stencil, release func()) {
	n := team.Threads()
	scratches = make([]*daslib.Scratch, n)
	stencils = make([]*arrayudf.Stencil, n)
	for h := range scratches {
		scratches[h] = daslib.GetScratch()
		stencils[h] = blk.Stencil(0, 0)
	}
	return scratches, stencils, func() {
		for _, s := range scratches {
			daslib.PutScratch(s)
		}
	}
}

// ApplyMTScratch is Algorithm 1 for point UDFs: a thread team evaluates udf
// over every (owned channel × strided time) cell of blk. The output array
// is preallocated and each thread writes its cells directly (the static
// schedule gives disjoint index ranges, so no merge is needed), reusing one
// stencil and one scratch arena per thread, so the loop itself allocates
// nothing per cell.
func ApplyMTScratch(team *omp.Team, blk arrayudf.Block, spec arrayudf.Spec, nt int, udf func(s *arrayudf.Stencil, scr *daslib.Scratch) float64) *dasf.Array2D {
	return applyCells(team, blk, spec, 0, spec.OutSamples(nt), udf)
}

// applyCells is ApplyMTScratch over the output cells [c0, c1) of every owned
// channel: cell k sits at time k·stride of blk, the output holds c1−c0 cells
// a channel, and the stencils read whatever the cells reach, so each value is
// the one the whole range gives it.
func applyCells(team *omp.Team, blk arrayudf.Block, spec arrayudf.Spec, c0, c1 int, udf func(s *arrayudf.Stencil, scr *daslib.Scratch) float64) *dasf.Array2D {
	own, n := blk.OwnedChannels(), c1-c0
	if own <= 0 {
		return dasf.NewArray2D(0, n)
	}
	stride := max(spec.TimeStride, 1)
	out := dasf.NewArray2D(own, n)
	scratches, stencils, release := teamScratch(team, blk)
	defer release()
	team.ForThread(own*n, func(i, h int) {
		st := stencils[h]
		st.SetPos(i/n, (c0+i%n)*stride)
		out.Data[i] = udf(st, scratches[h])
	})
	return out
}

// ApplyRowsInto is Algorithm 1 for row UDFs: a thread team evaluates udf
// once per owned channel. The output array is preallocated, each channel's
// UDF writes straight into its row, and every thread carries a scratch arena
// for kernel intermediates. Rows are engine-owned, so nothing scratch-owned
// escapes a UDF call.
func ApplyRowsInto(team *omp.Team, blk arrayudf.Block, rowLen int, udf func(s *arrayudf.Stencil, dst []float64, scr *daslib.Scratch)) *dasf.Array2D {
	own := blk.OwnedChannels()
	if own <= 0 {
		return dasf.NewArray2D(0, rowLen)
	}
	out := dasf.NewArray2D(own, rowLen)
	scratches, stencils, release := teamScratch(team, blk)
	defer release()
	team.ForThread(own, func(ch, h int) {
		st := stencils[h]
		st.SetPos(ch, 0)
		udf(st, out.Row(ch), scratches[h])
	})
	return out
}

// Run executes a workload over the view: B = Apply(A, f), points or rows as
// the workload says. If outPath is non-empty, rank 0 writes the assembled
// result as a DASF file (the single-big-array write both modes share in
// Figure 8).
func (e *Engine) Run(v *dass.View, w arrayudf.Workload, outPath string) (Report, error) {
	if err := e.check(w); err != nil {
		return Report{}, err
	}
	nch, nt := v.Shape()
	return e.apply(v, w, arrayudf.Cells{ChHi: nch, C1: w.OutSamples(nt)}, outPath)
}

// RunCells is Run for the rectangle k of its output, 0 ≤ k.ChLo < k.ChHi ≤
// nch and 0 ≤ k.C0 < k.C1 ≤ w.OutSamples(nt), with no file written. The ranks
// partition k's rows, each reads its share plus the workload's ghost
// channels clamped to the view, and the stencils read whatever samples the
// kept cells reach, so the output holds k's rows × k.C1−k.C0 cells, each the
// value Run gives it. A row workload's one range is the whole row. A read
// strategy loads partitions of the whole view, so with one configured k must
// keep every row.
func (e *Engine) RunCells(v *dass.View, w arrayudf.Workload, k arrayudf.Cells) (Report, error) {
	if err := e.check(w); err != nil {
		return Report{}, err
	}
	nch, nt := v.Shape()
	out := w.OutSamples(nt)
	if k.ChLo < 0 || k.ChLo >= k.ChHi || k.ChHi > nch || k.C0 < 0 || k.C0 >= k.C1 || k.C1 > out ||
		(w.UDFInto != nil && k.C1-k.C0 != out) || (e.cfg.ReadStrategy != nil && k.ChHi-k.ChLo != nch) {
		return Report{}, fmt.Errorf("haee: cells %+v of a workload of %d channels × %d cells", k, nch, out)
	}
	return e.apply(v, w, k, "")
}

// check refuses a layout or a workload the engine cannot run.
func (e *Engine) check(w arrayudf.Workload) error {
	if err := e.cfg.validate(); err != nil {
		return err
	}
	if (w.UDFScratch == nil) == (w.UDFInto == nil) || (w.UDFInto != nil && w.RowLen <= 0) {
		return fmt.Errorf("haee: a workload needs one UDF, and a row UDF a positive RowLen")
	}
	return nil
}

// apply runs w's cells k (a row workload: whole rows). Cancellation
// is checked once per channel row — a row UDF's call, a point UDF's first
// cell in the range — and its panic unwinds through the omp team and
// mpi.Run to the caller as the context's error.
func (e *Engine) apply(v *dass.View, w arrayudf.Workload, k arrayudf.Cells, outPath string) (Report, error) {
	cancelled := func() {
		if err := v.Context().Err(); err != nil {
			panic(fmt.Errorf("haee: compute: %w", err))
		}
	}
	return e.run(v, w.Spec, k, outPath, func(c *mpi.Comm, team *omp.Team, blk arrayudf.Block) (*dasf.Array2D, int64, pfs.Trace) {
		if w.UDFInto == nil {
			first := k.C0 * max(w.Spec.TimeStride, 1)
			return applyCells(team, blk, w.Spec, k.C0, k.C1, func(s *arrayudf.Stencil, scr *daslib.Scratch) float64 {
				if s.T() == first {
					cancelled()
				}
				return w.UDFScratch(s, scr)
			}), 0, pfs.Trace{}
		}
		var shared any
		var sharedBytes int64
		var prepTr pfs.Trace
		if w.Prepare != nil {
			shared, sharedBytes, prepTr = w.Prepare(c, v)
		}
		out := ApplyRowsInto(team, blk, w.RowLen, func(s *arrayudf.Stencil, dst []float64, scr *daslib.Scratch) {
			cancelled()
			w.UDFInto(s, shared, dst, scr)
		})
		return out, sharedBytes, prepTr
	})
}

// run is the shared phase loop: read k's rows → compute → gather/write, each
// phase measured once per rank into one recorder that the report reduces.
func (e *Engine) run(v *dass.View, spec arrayudf.Spec, k arrayudf.Cells,
	outPath string,
	compute func(c *mpi.Comm, team *omp.Team, blk arrayudf.Block) (*dasf.Array2D, int64, pfs.Trace),
) (Report, error) {
	cfg := e.cfg
	worldSize, threads := cfg.ranks()
	spec.ReadStrategy = cfg.ReadStrategy
	spec.FailPolicy = cfg.FailPolicy

	rep := Report{Mode: cfg.Mode, Nodes: cfg.Nodes, CoresPerNode: cfg.CoresPerNode}
	rows := k.ChHi - k.ChLo
	// Per-rank phase recorder, carried in the view's context next to the
	// request trace: the readers record read and exchange, the rank body
	// below compute and write.
	spans := obs.NewSpans(worldSize)
	v = v.WithContext(obs.ContextWithSpans(v.Context(), spans))
	var runErr error
	// cancelled panics the rank with the view context's error at a phase
	// boundary; mpi.Run unwraps it so callers see context.Canceled /
	// DeadlineExceeded via errors.Is.
	cancelled := func(phase string) {
		if err := v.Context().Err(); err != nil {
			panic(fmt.Errorf("haee: %s: %w", phase, err))
		}
	}
	runStart := time.Now()
	_, err := mpi.Run(worldSize, func(c *mpi.Comm) {
		team := omp.NewTeam(threads)

		// The team that computes on the block also reads it: the view fans
		// its member files over the rank's threads (one thread in PureMPI).
		cancelled("load")
		blk, readTr, quality := k.Load(c, v.WithTeam(team), spec)

		cancelled("compute")
		t0 := time.Now()
		out, sharedBytes, prepTr := compute(c, team, blk)
		spans.Add(c.Rank(), obs.PhaseCompute, time.Since(t0))
		readTr.Add(prepTr) // prepare-phase I/O counts as read I/O

		// Memory estimate: each rank holds its block + shared payload; a
		// node hosts ranksPerNode such ranks.
		var blockBytes int64
		if blk.Data != nil {
			blockBytes = int64(len(blk.Data.Data)) * 8
		}
		ranksPerNode := 1
		if cfg.Mode == PureMPI {
			ranksPerNode = cfg.CoresPerNode
		}
		memVec := mpi.Allreduce(c, []int64{blockBytes + sharedBytes}, mpi.MaxI64)
		memPerNode := memVec[0] * int64(ranksPerNode)
		oom := cfg.NodeMemoryBytes > 0 && memPerNode > cfg.NodeMemoryBytes

		// I/O traces: summed across ranks — the total request pressure on
		// the storage system is exactly what Figure 8 compares between the
		// two modes.
		trSum := mpi.Reduce(c, 0, []int64{readTr.Opens, readTr.Reads, readTr.BytesRead,
			readTr.Retries, readTr.Faults, readTr.SlowReads, readTr.MaskedSamples}, mpi.SumI64)
		if c.Rank() == 0 {
			readTr.Opens, readTr.Reads, readTr.BytesRead = trSum[0], trSum[1], trSum[2]
			readTr.Retries, readTr.Faults, readTr.SlowReads, readTr.MaskedSamples = trSum[3], trSum[4], trSum[5], trSum[6]
		}

		// Write the result as one big array with positioned parallel writes
		// (every rank stores its own rows — the single-shared-file pattern
		// whose cost Figure 8 shows is identical between the two modes),
		// then gather a copy on rank 0 for the report.
		cancelled("write")
		t0 = time.Now()
		var writeTr pfs.Trace
		if outPath != "" && !oom {
			outT := 0
			if out != nil {
				outT = out.Samples
			}
			// All ranks must agree on the output width, including ranks
			// that own no channels.
			widths := mpi.Allreduce(c, []int64{int64(outT)}, mpi.MaxI64)
			outT = int(widths[0])
			if c.Rank() == 0 {
				meta := dasf.Meta{"Producer": dasf.S("dassa-haee"), "Mode": dasf.S(cfg.Mode.String())}
				pw, err := dasf.CreateData(outPath, meta, rows, outT, dasf.Float64)
				if err != nil {
					runErr = err
				} else if err := pw.Close(); err != nil {
					runErr = err
				}
			}
			c.Barrier()
			if runErr == nil && out != nil && out.Channels > 0 {
				pw, err := dasf.OpenForWrite(outPath)
				if err != nil {
					panic(fmt.Errorf("haee: parallel write: %w", err))
				}
				if err := pw.WriteRows(blk.ChLo-k.ChLo, out); err != nil {
					pw.Close()
					panic(fmt.Errorf("haee: parallel write: %w", err))
				}
				st := pw.Stats()
				if err := pw.Close(); err != nil {
					panic(fmt.Errorf("haee: parallel write: %w", err))
				}
				writeTr.Opens += st.Opens
				writeTr.Writes += st.Writes
				writeTr.BytesWritten += st.BytesWritten
			}
		}
		wr := mpi.Reduce(c, 0, []int64{writeTr.Opens, writeTr.Writes, writeTr.BytesWritten}, mpi.SumI64)
		if c.Rank() == 0 {
			writeTr.Opens, writeTr.Writes, writeTr.BytesWritten = wr[0], wr[1], wr[2]
		}
		full := arrayudf.Gather(c, rows, arrayudf.Result{Data: out, ChLo: blk.ChLo, ChHi: blk.ChHi})
		spans.Add(c.Rank(), obs.PhaseWrite, time.Since(t0))

		if c.Rank() == 0 {
			rep.ReadTrace = readTr
			rep.ReadTrace.Processes = worldSize
			rep.WriteTrace = writeTr
			rep.WriteTrace.Processes = worldSize
			rep.MemPerNode = memPerNode
			rep.OOM = oom
			rep.Quality = quality
			rep.Output = full
		}
	})
	// The recorder outlives the world: reduce it once here, on the caller's
	// goroutine, and feed the process-wide histograms so a scrape of
	// /metrics sees every engine run's phase distribution.
	rep.Phases = spans.Report()
	spans.ObserveInto(obs.Default())
	annotateTrace(v.Context(), runStart, rep.Phases)
	if err != nil {
		var re *mpi.RankError
		if errors.As(err, &re) && re.TraceID == "" {
			re.TraceID = string(trace.IDFrom(v.Context()))
		}
		return rep, err
	}
	return rep, runErr
}

// annotateTrace lands the run's phases in the request trace (if the view
// carries one) as completed child spans haee.read, haee.exchange,
// haee.compute and haee.write. Phase wall times are max-across-ranks and
// disjoint, so the spans are laid out back to back from the run's start —
// an approximation of the critical path, not per-rank timelines.
func annotateTrace(ctx context.Context, runStart time.Time, phases obs.PhaseReport) {
	at := runStart
	for _, p := range obs.Phases() {
		if d := phases.Max[p]; d > 0 {
			trace.Add(ctx, "haee."+p.String(), at, d)
			at = at.Add(d)
		}
	}
}
