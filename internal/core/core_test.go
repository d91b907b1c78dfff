package core

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/detect"
	"dassa/internal/obs"
	"dassa/internal/obs/trace"
)

func makeDataset(t *testing.T, channels, files int) (*Dataset, dasgen.Config) {
	t.Helper()
	dir := t.TempDir()
	cfg := dasgen.Config{
		Channels: channels, SampleRate: 50, FileSeconds: 2, NumFiles: files,
		Seed: 31, DType: dasf.Float32,
	}
	if _, err := dasgen.Generate(dir, cfg, dasgen.Fig10Events(cfg)); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ds, cfg
}

func TestOpenDataset(t *testing.T) {
	ds, cfg := makeDataset(t, 16, 4)
	if ds.Len() != cfg.NumFiles {
		t.Errorf("Len = %d, want %d", ds.Len(), cfg.NumFiles)
	}
	if got := ds.SampleRate(); got != cfg.SampleRate {
		t.Errorf("SampleRate = %g, want %g", got, cfg.SampleRate)
	}
	if _, err := OpenDataset(t.TempDir()); err == nil {
		t.Error("empty directory should fail")
	}
	if _, err := OpenDataset("/nonexistent-dassa"); err == nil {
		t.Error("missing directory should fail")
	}
}

func TestSearchAndMerge(t *testing.T) {
	ds, cfg := makeDataset(t, 16, 5)
	files := ds.Files()
	found := ds.Search(files[1].Timestamp, 3)
	if len(found) != 3 || found[0].Path != files[1].Path {
		t.Fatalf("Search returned %d files", len(found))
	}
	v, err := ds.Merge(found)
	if err != nil {
		t.Fatal(err)
	}
	nch, nt := v.Shape()
	if nch != cfg.Channels || nt != 3*cfg.SamplesPerFile() {
		t.Errorf("merged view %d×%d", nch, nt)
	}
	if _, err := ds.Merge(nil); err == nil {
		t.Error("empty merge should fail")
	}
	// Merge files must not pollute subsequent OpenDataset calls.
	ds2, err := OpenDataset(filepath.Dir(files[0].Path))
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Len() != 5 {
		t.Errorf("rescan found %d files, want 5 (merge artifacts must be skipped)", ds2.Len())
	}
	if err := ds.CleanMergeFiles(); err != nil {
		t.Fatal(err)
	}
	left, _ := filepath.Glob(filepath.Join(filepath.Dir(files[0].Path), ".merge_*"))
	if len(left) != 0 {
		t.Errorf("CleanMergeFiles left %d files", len(left))
	}
}

func TestApplyFacade(t *testing.T) {
	ds, _ := makeDataset(t, 8, 2)
	v, err := ds.MergeAll()
	if err != nil {
		t.Fatal(err)
	}
	fw := New(Config{Nodes: 2, CoresPerNode: 2})
	out, rep, err := fw.Apply(v, 0, 1, func(s *arrayudf.Stencil) float64 {
		return 2 * s.Value()
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Data {
		if out.Data[i] != 2*full.Data[i] {
			t.Fatalf("Apply output wrong at %d", i)
		}
	}
	if rep.ReadTrace.Opens == 0 {
		t.Error("report missing I/O accounting")
	}
	if _, _, err := fw.Apply(v, 0, 1, nil, ""); err == nil {
		t.Error("nil UDF should fail")
	}
}

func TestLocalSimilarityFacade(t *testing.T) {
	ds, cfg := makeDataset(t, 48, 6)
	v, err := ds.MergeAll()
	if err != nil {
		t.Fatal(err)
	}
	fw := New(Config{Nodes: 2, CoresPerNode: 4})
	opt := DefaultLocalSimi(cfg.SampleRate)
	out := filepath.Join(t.TempDir(), "sim.dasf")
	opt.OutPath = out
	sim, regions, rep, err := fw.LocalSimilarity(v, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Channels != cfg.Channels {
		t.Errorf("map channels = %d", sim.Channels)
	}
	if len(regions) == 0 {
		t.Error("no events detected in a record with planted events")
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("similarity map not written: %v", err)
	}
	if d, err := time.ParseDuration(rep.Phases.Compute); err != nil || d <= 0 {
		t.Errorf("report compute phase %q (%v), want a positive duration", rep.Phases.Compute, err)
	}
	// Invalid parameters are rejected.
	bad := opt
	bad.M = 0
	if _, _, _, err := fw.LocalSimilarity(v, bad); err == nil {
		t.Error("invalid params should fail")
	}
}

func TestInterferometryFacade(t *testing.T) {
	ds, cfg := makeDataset(t, 12, 3)
	v, err := ds.MergeAll()
	if err != nil {
		t.Fatal(err)
	}
	fw := New(Config{Nodes: 2, CoresPerNode: 2})
	opt := DefaultInterferometry(cfg.SampleRate)
	opt.MaxLag = 30
	corr, _, err := fw.Interferometry(v, opt)
	if err != nil {
		t.Fatal(err)
	}
	if corr.Channels != cfg.Channels || corr.Samples != 61 {
		t.Errorf("correlation shape %d×%d, want %d×61", corr.Channels, corr.Samples, cfg.Channels)
	}
	// Master self-correlation peaks at 1.
	if d := math.Abs(corr.At(0, 30) - 1); d > 1e-6 {
		t.Errorf("self correlation = %g", corr.At(0, 30))
	}
	bad := opt
	bad.Rate = 0
	if _, _, err := fw.Interferometry(v, bad); err == nil {
		t.Error("invalid params should fail")
	}
}

func TestOOMPropagation(t *testing.T) {
	ds, cfg := makeDataset(t, 32, 3)
	v, err := ds.MergeAll()
	if err != nil {
		t.Fatal(err)
	}
	fw := New(Config{Nodes: 1, CoresPerNode: 4, PureMPI: true, NodeMemoryBytes: 1})
	opt := DefaultInterferometry(cfg.SampleRate)
	if _, _, err := fw.Interferometry(v, opt); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
	if _, _, _, err := fw.LocalSimilarity(v, DefaultLocalSimi(cfg.SampleRate)); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("localsimi err = %v, want ErrOutOfMemory", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	fw := New(Config{})
	if fw.cfg.Nodes != 1 || fw.cfg.CoresPerNode != 4 {
		t.Errorf("defaults = %+v", fw.cfg)
	}
}

func TestStackedInterferometryFacade(t *testing.T) {
	ds, cfg := makeDataset(t, 8, 4)
	v, err := ds.MergeAll()
	if err != nil {
		t.Fatal(err)
	}
	fw := New(Config{Nodes: 2, CoresPerNode: 2})
	_, nt := v.Shape()
	op, _ := detect.Lookup(detect.StackingParams{}.Op())
	opt := op.Default(cfg.SampleRate, nt).(*detect.StackingParams)
	opt.MaxLag = 20
	corr, rep, err := fw.Run(v, opt, "")
	if err != nil {
		t.Fatal(err)
	}
	if corr.Channels != cfg.Channels || corr.Samples != opt.StackedRowLen() {
		t.Errorf("stacked shape %d×%d", corr.Channels, corr.Samples)
	}
	// Master self-correlation stacks to 1 at zero lag.
	if d := math.Abs(corr.At(0, corr.Samples/2) - 1); d > 1e-6 {
		t.Errorf("stacked self correlation = %g", corr.At(0, corr.Samples/2))
	}
	if rep.ReadTrace.Opens == 0 {
		t.Error("report missing I/O accounting")
	}
	bad := *opt
	bad.WindowSamples = 2
	if _, _, err := fw.Run(v, &bad, ""); !errors.Is(err, detect.ErrBadParams) {
		t.Errorf("invalid window: err = %v, want ErrBadParams", err)
	}
}

func TestSTALTAFacade(t *testing.T) {
	ds, cfg := makeDataset(t, 8, 3)
	v, err := ds.MergeAll()
	if err != nil {
		t.Fatal(err)
	}
	fw := New(Config{Nodes: 2, CoresPerNode: 2})
	p := detect.STALTAParams{
		STASamples: int(cfg.SampleRate / 5),
		LTASamples: int(2 * cfg.SampleRate),
		Stride:     5,
	}
	m, _, err := fw.Run(v, &p, "")
	if err != nil {
		t.Fatal(err)
	}
	_, nt := v.Shape()
	if m.Channels != cfg.Channels || m.Samples != (nt+p.Stride-1)/p.Stride {
		t.Errorf("STA/LTA map shape %d×%d", m.Channels, m.Samples)
	}
	for _, v := range m.Data {
		if v < 0 || math.IsNaN(v) {
			t.Fatal("invalid ratio in map")
		}
	}
	bad := p
	bad.STASamples = 0
	if _, _, err := fw.Run(v, &bad, ""); !errors.Is(err, detect.ErrBadParams) {
		t.Errorf("invalid params: err = %v, want ErrBadParams", err)
	}
}

// TestPhasesOneMeasurement: a run's phases are measured once, and every
// place that reports them is a view of that one record — the report's
// strings, the haee.* spans in the request trace (to the nanosecond), and
// the increase of the dassa_phase_seconds histograms (one rank, so one
// observation per phase).
func TestPhasesOneMeasurement(t *testing.T) {
	ds, cfg := makeDataset(t, 12, 3)
	v, err := ds.MergeAll()
	if err != nil {
		t.Fatal(err)
	}
	hist := func(p obs.Phase) *obs.Histogram {
		return obs.Default().Histogram("dassa_phase_seconds", "", obs.LatencyBuckets(), obs.L("phase", p.String()))
	}
	var before [obs.NumPhases]float64
	for _, p := range obs.Phases() {
		before[p] = hist(p).Sum()
	}
	store := trace.NewStore(1, 1)
	ctx, root := trace.New(context.Background(), store, "test", "", "run")
	_, rep, err := New(Config{Nodes: 1, CoresPerNode: 2}).Run(v.WithContext(ctx), detect.DefaultLocalSimi(cfg.SampleRate), "")
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	spanNS := map[string]int64{}
	for _, sp := range store.Recent()[0].Spans {
		spanNS[sp.Name] = sp.DurNS
	}
	for p, s := range [obs.NumPhases]string{rep.Phases.Read, rep.Phases.Exchange, rep.Phases.Compute, rep.Phases.Write} {
		ph := obs.Phase(p)
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("%s: report string %q: %v", ph, s, err)
		}
		if ph != obs.PhaseExchange && d <= 0 {
			t.Errorf("%s: report %v, want a measured phase", ph, d)
		}
		if got, ok := spanNS["haee."+ph.String()]; ok != (d > 0) || got != int64(d) {
			t.Errorf("%s: span haee.%s = %dns (present %v), report %dns", ph, ph, got, ok, int64(d))
		}
		if inc := hist(ph).Sum() - before[p]; math.Abs(inc-d.Seconds()) > 1e-6 {
			t.Errorf("%s: dassa_phase_seconds grew by %gs, report %gs", ph, inc, d.Seconds())
		}
	}
}

// TestRunEveryRegisteredOp: Run needs nothing per operation. Whatever the
// registry holds runs at its defaults, gives the extent its workload
// announces, lands in a request trace under its own name, and is refused —
// before anything is read — when its parameters do not fit the view.
func TestRunEveryRegisteredOp(t *testing.T) {
	ds, cfg := makeDataset(t, 12, 4)
	v, err := ds.MergeAll()
	if err != nil {
		t.Fatal(err)
	}
	nch, nt := v.Shape()
	fw := New(Config{Nodes: 2, CoresPerNode: 2})
	for _, op := range detect.Ops() {
		p := op.Default(cfg.SampleRate, nt)
		if p.Op() != op.Name {
			t.Fatalf("%s: its defaults belong to %q", op.Name, p.Op())
		}
		store := trace.NewStore(1, 1)
		ctx, root := trace.New(context.Background(), store, "test", "", "run")
		out, rep, err := fw.Run(v.WithContext(ctx), p, "")
		root.End()
		if err != nil {
			t.Fatalf("%s at its defaults: %v", op.Name, err)
		}
		if want := p.Workload(nt).OutSamples(nt); out.Channels != nch || out.Samples != want {
			t.Errorf("%s: output %d×%d, want %d×%d", op.Name, out.Channels, out.Samples, nch, want)
		}
		if rep.ReadTrace.Opens == 0 {
			t.Errorf("%s: report missing I/O accounting", op.Name)
		}
		named := false
		for _, sp := range store.Recent()[0].Spans {
			named = named || sp.Name == "core."+op.Name
		}
		if !named {
			t.Errorf("%s: no core.%s span in the request trace", op.Name, op.Name)
		}
		narrow, err := v.Subset(0, 1, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, rep, err := fw.Run(narrow, p, ""); !errors.Is(err, detect.ErrBadParams) || rep.ReadTrace.Opens != 0 {
			t.Errorf("%s on a 1×2 view: err %v after %d opens, want ErrBadParams before any read", op.Name, err, rep.ReadTrace.Opens)
		}
	}
}
