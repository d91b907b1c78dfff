// Package core is the DASSA framework facade — the high-level, easy-to-use
// API the paper promises geophysicists (§III): open a directory of DAS
// files, search by time, merge virtually, and run analyses in parallel
// without touching the storage engine, the execution engine, or the
// message-passing layer directly. Everything underneath (dass, arrayudf,
// haee, daslib, detect) remains available for advanced use; this package
// is the one a downstream user starts with.
//
//	ds, _ := core.OpenDataset("./data")
//	view, _ := ds.MergeAll()
//	fw := core.New(core.Config{Nodes: 4, CoresPerNode: 8})
//	sim, rep, _ := fw.LocalSimilarity(view, core.DefaultLocalSimi(500))
package core

import (
	"fmt"
	"os"
	"path/filepath"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/haee"
	"dassa/internal/obs"
	"dassa/internal/obs/trace"
	"dassa/internal/pfs"
)

// Config sizes the execution engine. Zero values choose sane defaults
// (one node, four cores, hybrid mode).
type Config struct {
	Nodes        int
	CoresPerNode int
	// PureMPI selects the legacy one-process-per-core model; default is
	// the hybrid engine.
	PureMPI bool
	// NodeMemoryBytes, when positive, makes runs fail with ErrOutOfMemory
	// instead of exceeding the per-node budget.
	NodeMemoryBytes int64
	// FailPolicy decides what a member file that stays bad after retries
	// does to a run: dass.FailAbort (default) kills it, dass.FailDegrade
	// masks the loss with NaN gaps and fills in Report.Quality.
	FailPolicy dass.FailPolicy
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.CoresPerNode <= 0 {
		c.CoresPerNode = 4
	}
	return c
}

// ErrOutOfMemory reports that a run's estimated per-node footprint
// exceeded Config.NodeMemoryBytes.
var ErrOutOfMemory = fmt.Errorf("core: estimated per-node memory exceeds the configured budget")

// Framework executes analyses under a machine layout. Every method honors
// cancellation through the view it is given (v.WithContext(ctx)): a run
// cancelled mid-read or mid-compute returns an error satisfying
// dass.IsCancellation, never a silently degraded result, whatever the
// FailPolicy.
type Framework struct {
	cfg Config
}

// New creates a framework with the given layout. It changes no
// process-wide state: the storage retry policy is dasf.SetRetryPolicy's.
func New(cfg Config) *Framework {
	return &Framework{cfg: cfg.withDefaults()}
}

func (f *Framework) engine() *haee.Engine {
	mode := haee.Hybrid
	if f.cfg.PureMPI {
		mode = haee.PureMPI
	}
	return haee.New(haee.Config{
		Nodes:           f.cfg.Nodes,
		CoresPerNode:    f.cfg.CoresPerNode,
		Mode:            mode,
		NodeMemoryBytes: f.cfg.NodeMemoryBytes,
		FailPolicy:      f.cfg.FailPolicy,
	})
}

// Dataset is an opened directory of DAS data files.
type Dataset struct {
	dir string
	cat *dass.Catalog
}

// OpenDataset catalogs every DASF data file in dir (metadata only, with
// the persistent index so unchanged files cost nothing to rescan).
func OpenDataset(dir string) (*Dataset, error) {
	cat, err := dass.ScanDirCached(dir)
	if err != nil {
		return nil, err
	}
	if cat.Len() == 0 {
		return nil, fmt.Errorf("core: no DASF data files in %s", dir)
	}
	return &Dataset{dir: dir, cat: cat}, nil
}

// Len returns the number of cataloged files.
func (d *Dataset) Len() int { return d.cat.Len() }

// Files returns the cataloged entries in time order.
func (d *Dataset) Files() []dass.Entry { return d.cat.Entries() }

// SampleRate returns the dataset's sampling frequency from metadata, or 0
// if absent.
func (d *Dataset) SampleRate() float64 {
	if d.cat.Len() == 0 {
		return 0
	}
	return d.cat.Entries()[0].Info.SampleRate()
}

// Search finds files by start timestamp and count (das_search -s/-c).
func (d *Dataset) Search(start int64, count int) []dass.Entry {
	return d.cat.SearchStartCount(start, count)
}

// Merge virtually concatenates the given files and returns a view over the
// result. The VCA file is written next to the data (metadata only).
func (d *Dataset) Merge(entries []dass.Entry) (*dass.View, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("core: nothing to merge")
	}
	path := filepath.Join(d.dir, fmt.Sprintf(".merge_%d_%d.vca.dasf",
		entries[0].Timestamp, len(entries)))
	if _, err := dass.CreateVCA(path, entries); err != nil {
		return nil, err
	}
	return dass.OpenView(path)
}

// MergeAll merges the whole dataset.
func (d *Dataset) MergeAll() (*dass.View, error) {
	return d.Merge(d.cat.Entries())
}

// Report summarizes a framework run for callers that want phase timings
// and I/O accounting without importing haee.
type Report struct {
	ReadTrace  pfs.Trace
	MemPerNode int64
	// Phases is the engine's phase record (haee.Report.Phases), each phase
	// the slowest rank's time as a time.Duration string.
	Phases struct{ Read, Exchange, Compute, Write string }
	// Quality accounts for degraded reads (non-nil only under
	// dass.FailDegrade); Quality.Degraded() reports whether data was lost.
	Quality *dass.QualityReport
}

// Degraded reports whether the run completed with data loss.
func (r Report) Degraded() bool { return r.Quality.Degraded() }

func reportOf(rep haee.Report) Report {
	out := Report{ReadTrace: rep.ReadTrace, MemPerNode: rep.MemPerNode, Quality: rep.Quality}
	ph := rep.Phases.Max
	out.Phases.Read = ph[obs.PhaseRead].String()
	out.Phases.Exchange = ph[obs.PhaseExchange].String()
	out.Phases.Compute = ph[obs.PhaseCompute].String()
	out.Phases.Write = ph[obs.PhaseWrite].String()
	return out
}

// Run executes a registered analysis (detect.Op) over the view: its parameter
// block is bounded against the view, told the framework's fail policy, and
// run as the workload it builds. A non-empty outPath also gets the result.
func (f *Framework) Run(v *dass.View, p detect.Params, outPath string) (*dasf.Array2D, Report, error) {
	v, sp := traceOp(v, "core."+p.Op())
	nch, nt := v.Shape()
	if err := p.Validate(nch, nt); err != nil {
		sp.EndErr(err)
		return nil, Report{}, err
	}
	detect.SetFailPolicy(p, f.cfg.FailPolicy)
	out, rep, err := f.run(v, p.Workload(nt), outPath)
	sp.EndErr(err)
	return out, rep, err
}

// run is the tail every facade shares: engine, out-of-memory verdict, report.
func (f *Framework) run(v *dass.View, w arrayudf.Workload, outPath string) (*dasf.Array2D, Report, error) {
	rep, err := f.engine().Run(v, w, outPath)
	if err != nil {
		return nil, Report{}, err
	}
	if rep.OOM {
		return nil, reportOf(rep), ErrOutOfMemory
	}
	return rep.Output, reportOf(rep), nil
}

// traceOp opens a compute span named op under the view's request trace (a
// no-op for untraced views, costing nothing) and rebinds the view so the
// engine's phase spans nest under it. The caller owns the returned span.
func traceOp(v *dass.View, op string) (*dass.View, *trace.Span) {
	ctx, sp := trace.Start(v.Context(), op)
	if sp == nil {
		return v, nil
	}
	return v.WithContext(ctx), sp
}

// LocalSimiOptions configures earthquake detection (Algorithm 2).
type LocalSimiOptions struct {
	detect.LocalSimiParams
	// Threshold is the detection cut in background standard deviations
	// (detect.DefaultThreshold when zero).
	Threshold float64
	// OutPath, when set, writes the similarity map as a DASF file.
	OutPath string
}

// DefaultLocalSimi returns the registry's local-similarity defaults for the
// sampling rate.
func DefaultLocalSimi(rate float64) LocalSimiOptions {
	return LocalSimiOptions{LocalSimiParams: *detect.DefaultLocalSimi(rate), Threshold: detect.DefaultThreshold}
}

// LocalSimilarity computes the local-similarity map over the view and
// returns it along with the detected events.
func (f *Framework) LocalSimilarity(v *dass.View, opt LocalSimiOptions) (*dasf.Array2D, []detect.Region, Report, error) {
	out, rep, err := f.Run(v, &opt.LocalSimiParams, opt.OutPath)
	if err != nil {
		return nil, nil, rep, err
	}
	if opt.Threshold == 0 {
		opt.Threshold = detect.DefaultThreshold
	}
	return out, detect.BandedEvents(out, opt.Threshold), rep, nil
}

// InterferometryOptions configures ambient-noise interferometry
// (Algorithm 3).
type InterferometryOptions struct {
	detect.InterferometryParams
	// OutPath, when set, writes the correlation array as a DASF file.
	OutPath string
}

// DefaultInterferometry returns the registry's interferometry defaults for
// the sampling rate.
func DefaultInterferometry(rate float64) InterferometryOptions {
	return InterferometryOptions{InterferometryParams: *detect.DefaultInterferometry(rate)}
}

// Interferometry computes per-channel noise correlations against the
// master channel.
func (f *Framework) Interferometry(v *dass.View, opt InterferometryOptions) (*dasf.Array2D, Report, error) {
	return f.Run(v, &opt.InterferometryParams, opt.OutPath)
}

// Apply runs an arbitrary stencil UDF over the view — the raw
// B = Apply(A, f) interface of ArrayUDF, parallelized by the framework's
// engine. ghostChannels is the stencil's channel reach; timeStride > 1
// evaluates every timeStride-th sample.
func (f *Framework) Apply(v *dass.View, ghostChannels, timeStride int, udf func(s *arrayudf.Stencil) float64, outPath string) (*dasf.Array2D, Report, error) {
	if udf == nil {
		return nil, Report{}, fmt.Errorf("core: Apply needs a UDF")
	}
	v, sp := traceOp(v, "core.apply")
	out, rep, err := f.run(v, arrayudf.Workload{
		Spec:       arrayudf.Spec{GhostChannels: ghostChannels, TimeStride: timeStride},
		UDFScratch: func(s *arrayudf.Stencil, _ *daslib.Scratch) float64 { return udf(s) },
	}, outPath)
	sp.EndErr(err)
	return out, rep, err
}

// CleanMergeFiles removes the VCA files Merge wrote into the dataset
// directory.
func (d *Dataset) CleanMergeFiles() error {
	matches, err := filepath.Glob(filepath.Join(d.dir, ".merge_*.vca.dasf"))
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			return err
		}
	}
	return nil
}
