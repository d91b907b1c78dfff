package haee

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/dasgen"
	"dassa/internal/daslib"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/obs"
	"dassa/internal/obs/trace"
	"dassa/internal/omp"
)

func makeView(t *testing.T, channels, files int) (*dass.View, *dasf.Array2D, dasgen.Config) {
	t.Helper()
	dir := t.TempDir()
	cfg := dasgen.Config{
		Channels: channels, SampleRate: 40, FileSeconds: 2, NumFiles: files,
		Seed: 8, DType: dasf.Float64,
	}
	if _, err := dasgen.Generate(dir, cfg, dasgen.Fig10Events(cfg)); err != nil {
		t.Fatal(err)
	}
	cat, err := dass.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	vca := filepath.Join(dir, "v.dasf")
	if _, err := dass.CreateVCA(vca, cat.Entries()); err != nil {
		t.Fatal(err)
	}
	v, err := dass.OpenView(vca)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	return v, full, cfg
}

func TestModeString(t *testing.T) {
	if PureMPI.String() != "mpi" || Hybrid.String() != "hybrid" {
		t.Error("Mode.String broken")
	}
}

func TestConfigValidation(t *testing.T) {
	e := New(Config{Nodes: 0, CoresPerNode: 4})
	if _, err := e.Run(nil, arrayudf.Workload{UDFScratch: func(*arrayudf.Stencil, *daslib.Scratch) float64 { return 0 }}, ""); err == nil {
		t.Error("zero nodes should fail")
	}
	e = New(Config{Nodes: 1, CoresPerNode: 1})
	if _, err := e.Run(nil, arrayudf.Workload{}, ""); err == nil {
		t.Error("nil UDF should fail")
	}
	rowUDF := func(*arrayudf.Stencil, any, []float64, *daslib.Scratch) {}
	if _, err := e.Run(nil, arrayudf.Workload{UDFInto: rowUDF}, ""); err == nil {
		t.Error("a rows workload without a row length should fail")
	}
	cellUDF := func(*arrayudf.Stencil, *daslib.Scratch) float64 { return 0 }
	if _, err := e.Run(nil, arrayudf.Workload{UDFScratch: cellUDF, UDFInto: rowUDF, RowLen: 1}, ""); err == nil {
		t.Error("a workload that is both points and rows should fail")
	}
}

func TestApplyMTMatchesSequentialApply(t *testing.T) {
	v, full, _ := makeView(t, 10, 2)
	udf := func(s *arrayudf.Stencil, _ *daslib.Scratch) float64 {
		return s.At(0, -1) + 2*s.Value() + s.At(0, 1)
	}
	spec := arrayudf.Spec{GhostChannels: 1, TimeStride: 3}

	// Sequential reference via arrayudf.Apply on one rank.
	var want *dasf.Array2D
	eng := New(Config{Nodes: 1, CoresPerNode: 1, Mode: PureMPI})
	rep, err := eng.Run(v, arrayudf.Workload{Spec: spec, UDFScratch: udf}, "")
	if err != nil {
		t.Fatal(err)
	}
	want = rep.Output

	// Hybrid with several threads and several nodes.
	for _, cfg := range []Config{
		{Nodes: 1, CoresPerNode: 4, Mode: Hybrid},
		{Nodes: 3, CoresPerNode: 2, Mode: Hybrid},
		{Nodes: 2, CoresPerNode: 3, Mode: PureMPI},
	} {
		rep, err := New(cfg).Run(v, arrayudf.Workload{Spec: spec, UDFScratch: udf}, "")
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Output
		if got.Channels != want.Channels || got.Samples != want.Samples {
			t.Fatalf("%v: shape %d×%d, want %d×%d", cfg, got.Channels, got.Samples, want.Channels, want.Samples)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("cfg=%+v: output differs at %d", cfg, i)
			}
		}
	}
	_ = full
}

func TestApplyMTDirect(t *testing.T) {
	// ApplyMTScratch on a handmade block, checked against direct evaluation.
	a := dasf.NewArray2D(4, 20)
	for c := 0; c < 4; c++ {
		for tt := 0; tt < 20; tt++ {
			a.Set(c, tt, float64(c)*100+float64(tt))
		}
	}
	blk := arrayudf.Block{Data: a, ChLo: 0, ChHi: 4, Ghost: 0}
	team := omp.NewTeam(3)
	out := ApplyMTScratch(team, blk, arrayudf.Spec{TimeStride: 2}, 20, func(s *arrayudf.Stencil, _ *daslib.Scratch) float64 {
		return 2 * s.Value()
	})
	if out.Channels != 4 || out.Samples != 10 {
		t.Fatalf("shape %d×%d", out.Channels, out.Samples)
	}
	for c := 0; c < 4; c++ {
		for i := 0; i < 10; i++ {
			if out.At(c, i) != 2*a.At(c, i*2) {
				t.Fatalf("ApplyMTScratch(%d,%d) wrong", c, i)
			}
		}
	}
	// Empty block.
	empty := ApplyMTScratch(team, arrayudf.Block{ChLo: 2, ChHi: 2}, arrayudf.Spec{}, 20, nil)
	if empty.Channels != 0 {
		t.Error("empty block should give empty output")
	}
}

func TestHybridSharesMasterMemory(t *testing.T) {
	// The core Figure 8 claim: with the same total cores, pure MPI's
	// per-node memory exceeds hybrid's by (cores-1) × shared bytes.
	v, _, cfg := makeView(t, 16, 2)
	params := detect.InterferometryParams{
		Rate: cfg.SampleRate, FilterOrder: 3, CutoffHz: 8,
		ResampleP: 1, ResampleQ: 2, MasterChannel: 0, MaxLag: 30,
	}
	_, nt := v.Shape()
	wl := params.Workload(nt)

	repMPI, err := New(Config{Nodes: 2, CoresPerNode: 4, Mode: PureMPI}).Run(v, wl, "")
	if err != nil {
		t.Fatal(err)
	}
	repHyb, err := New(Config{Nodes: 2, CoresPerNode: 4, Mode: Hybrid}).Run(v, wl, "")
	if err != nil {
		t.Fatal(err)
	}
	if repMPI.MemPerNode <= repHyb.MemPerNode {
		t.Errorf("pure MPI per-node memory (%d) should exceed hybrid (%d)",
			repMPI.MemPerNode, repHyb.MemPerNode)
	}
	// Same result either way.
	if repMPI.Output.Channels != repHyb.Output.Channels {
		t.Fatal("shape mismatch")
	}
	for i := range repMPI.Output.Data {
		if d := math.Abs(repMPI.Output.Data[i] - repHyb.Output.Data[i]); d > 1e-9 {
			t.Fatalf("mode outputs differ at %d by %g", i, d)
		}
	}
	// Hybrid issues fewer read requests (2 ranks vs 8 ranks doing
	// independent I/O + master reads).
	if repHyb.ReadTrace.Opens >= repMPI.ReadTrace.Opens {
		t.Errorf("hybrid opens (%d) should be below pure MPI opens (%d)",
			repHyb.ReadTrace.Opens, repMPI.ReadTrace.Opens)
	}
}

func TestOOMDetection(t *testing.T) {
	v, _, cfg := makeView(t, 16, 2)
	params := detect.InterferometryParams{
		Rate: cfg.SampleRate, FilterOrder: 3, CutoffHz: 8,
		ResampleP: 1, ResampleQ: 2, MasterChannel: 0, MaxLag: 30,
	}
	_, nt := v.Shape()
	wl := params.Workload(nt)
	// A memory cap between hybrid's and pure MPI's footprint OOMs only MPI.
	hyb, err := New(Config{Nodes: 2, CoresPerNode: 4, Mode: Hybrid}).Run(v, wl, "")
	if err != nil {
		t.Fatal(err)
	}
	mpiRep, err := New(Config{Nodes: 2, CoresPerNode: 4, Mode: PureMPI}).Run(v, wl, "")
	if err != nil {
		t.Fatal(err)
	}
	cap := (hyb.MemPerNode + mpiRep.MemPerNode) / 2
	hyb2, err := New(Config{Nodes: 2, CoresPerNode: 4, Mode: Hybrid, NodeMemoryBytes: cap}).Run(v, wl, "")
	if err != nil {
		t.Fatal(err)
	}
	mpi2, err := New(Config{Nodes: 2, CoresPerNode: 4, Mode: PureMPI, NodeMemoryBytes: cap}).Run(v, wl, "")
	if err != nil {
		t.Fatal(err)
	}
	if hyb2.OOM {
		t.Error("hybrid should fit under the cap")
	}
	if !mpi2.OOM {
		t.Error("pure MPI should OOM under the cap")
	}
}

func TestRunRowsWritesOutput(t *testing.T) {
	v, _, cfg := makeView(t, 8, 1)
	params := detect.InterferometryParams{
		Rate: cfg.SampleRate, FilterOrder: 3, CutoffHz: 8,
		ResampleP: 1, ResampleQ: 2, MasterChannel: 0, MaxLag: 20,
	}
	_, nt := v.Shape()
	wl := params.Workload(nt)
	out := filepath.Join(t.TempDir(), "result.dasf")
	rep, err := New(Config{Nodes: 2, CoresPerNode: 2, Mode: Hybrid}).Run(v, wl, out)
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := dasf.ReadInfo(out)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumChannels != 8 || info.NumSamples != wl.RowLen {
		t.Errorf("written result shape %d×%d, want 8×%d", info.NumChannels, info.NumSamples, wl.RowLen)
	}
	if rep.WriteTrace.BytesWritten == 0 {
		t.Error("write trace empty")
	}
	ph := rep.Phases.Max
	if sum := ph[obs.PhaseRead] + ph[obs.PhaseExchange] + ph[obs.PhaseCompute] + ph[obs.PhaseWrite]; rep.Total() <= 0 || rep.Total() != sum {
		t.Errorf("Total() = %v, want the phases' sum %v > 0", rep.Total(), sum)
	}
	// The master channel's self-correlation peaks at 1 at zero lag.
	zero := wl.RowLen / 2
	if d := math.Abs(rep.Output.At(0, zero) - 1); d > 1e-6 {
		t.Errorf("master self-correlation at zero lag = %g, want 1", rep.Output.At(0, zero))
	}
}

// TestPhaseSpansAreTheReport: the haee.* spans a traced run leaves are its
// report's phases, laid back to back from the read: the comm-avoiding reader
// makes the exchange a phase of its own, disjoint from the read.
func TestPhaseSpansAreTheReport(t *testing.T) {
	v, _, _ := makeView(t, 12, 4)
	w := arrayudf.Workload{
		Spec:       arrayudf.Spec{GhostChannels: 1},
		UDFScratch: func(s *arrayudf.Stencil, _ *daslib.Scratch) float64 { return s.At(0, -1) + s.At(0, 1) },
	}
	store := trace.NewStore(1, 1)
	ctx, root := trace.New(context.Background(), store, "test", "", "run")
	rep, err := New(Config{Nodes: 2, CoresPerNode: 2, Mode: Hybrid, ReadStrategy: arrayudf.CommAvoidingRead}).
		Run(v.WithContext(ctx), w, "")
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases.Ranks != 2 || rep.Phases.Max[obs.PhaseExchange] <= 0 {
		t.Fatalf("phases %v: want 2 ranks and a measured exchange", rep.Phases)
	}
	spans := map[string]trace.SpanData{}
	for _, sp := range store.Recent()[0].Spans {
		spans[sp.Name] = sp
	}
	at := spans["haee.read"].StartUnixNano
	for _, p := range obs.Phases() {
		sp, ok := spans["haee."+p.String()]
		if !ok || sp.DurNS != int64(rep.Phases.Max[p]) || sp.StartUnixNano != at {
			t.Errorf("haee.%s span %+v (present %v), want %v from %d", p, sp, ok, rep.Phases.Max[p], at)
		}
		at += sp.DurNS
	}
}

// TestApplyRowsMTWrongLenPanics is the multithreaded rows loop's row-length
// guard, on ApplyRowsInto (the name is the floor list's, from the loop it
// replaced): every UDF call is handed exactly its own channel's row of the
// output — rowLen samples, positioned on that channel — so a UDF that
// assumes a longer row than the workload declared panics on its first write
// past the end instead of landing in its neighbour's row, and the panic
// reaches the caller.
func TestApplyRowsMTWrongLenPanics(t *testing.T) {
	const nch, rowLen = 5, 4
	a := dasf.NewArray2D(nch, 10)
	for ch := 0; ch < nch; ch++ {
		a.Set(ch, 0, float64(ch))
	}
	blk := arrayudf.Block{Data: a, ChLo: 0, ChHi: nch}
	for _, threads := range []int{1, 3} {
		out := ApplyRowsInto(omp.NewTeam(threads), blk, rowLen, func(s *arrayudf.Stencil, dst []float64, _ *daslib.Scratch) {
			if len(dst) != rowLen {
				t.Errorf("channel %d handed a row of %d samples, declared %d", s.Channel(), len(dst), rowLen)
			}
			for i := range dst {
				dst[i] = s.Row(0)[0]*10 + float64(i)
			}
		})
		if out.Channels != nch || out.Samples != rowLen {
			t.Fatalf("output %d×%d, want %d×%d", out.Channels, out.Samples, nch, rowLen)
		}
		for ch := 0; ch < nch; ch++ {
			for i, v := range out.Row(ch) {
				if v != float64(ch*10+i) {
					t.Fatalf("team of %d: row %d sample %d = %v: not the row channel %d wrote", threads, ch, i, v, ch)
				}
			}
		}
	}
	if empty := ApplyRowsInto(omp.NewTeam(2), arrayudf.Block{ChLo: 2, ChHi: 2}, rowLen, nil); empty.Channels != 0 || empty.Samples != rowLen {
		t.Errorf("empty block gives %d×%d, want 0×%d", empty.Channels, empty.Samples, rowLen)
	}
	defer func() {
		if recover() == nil {
			t.Error("a write past the declared row length should panic")
		}
	}()
	ApplyRowsInto(omp.NewTeam(1), blk, rowLen, func(_ *arrayudf.Stencil, dst []float64, _ *daslib.Scratch) { dst[rowLen] = 1 })
}

// TestBlockLoadFansOverTheRanksTeam: the engine hands the view the thread
// team it computes with, so a Hybrid rank's block load shows up in the
// request trace as one dass.read over all the members with the node's
// threads, a PureMPI rank's as a read with one — and neither the output nor
// the request counts depend on which.
func TestBlockLoadFansOverTheRanksTeam(t *testing.T) {
	v, _, _ := makeView(t, 12, 5)
	w := arrayudf.Workload{
		Spec: arrayudf.Spec{GhostChannels: 1},
		UDFScratch: func(s *arrayudf.Stencil, _ *daslib.Scratch) float64 {
			return s.At(0, -1) + s.Value() + s.At(0, 1)
		},
	}
	var ref Report
	for i, tc := range []struct {
		cfg         Config
		wantThreads string
	}{
		{Config{Nodes: 1, CoresPerNode: 1, Mode: Hybrid}, "1"},
		{Config{Nodes: 1, CoresPerNode: 3, Mode: Hybrid}, "3"},
		{Config{Nodes: 1, CoresPerNode: 8, Mode: Hybrid}, "5"}, // no more threads than members
		{Config{Nodes: 1, CoresPerNode: 3, Mode: PureMPI}, "1"},
	} {
		store := trace.NewStore(4, 4)
		ctx, root := trace.New(context.Background(), store, "test", "", "run")
		rep, err := New(tc.cfg).Run(v.WithContext(ctx), w, "")
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		reads := 0
		for _, sp := range store.Recent()[0].Spans {
			if sp.Name != "dass.read" {
				continue
			}
			reads++
			attrs := map[string]string{}
			for _, a := range sp.Attrs {
				attrs[a.K] = a.V
			}
			if attrs["members"] != "5" || attrs["threads"] != tc.wantThreads {
				t.Errorf("%+v: dass.read attrs %v, want members=5 threads=%s", tc.cfg, attrs, tc.wantThreads)
			}
		}
		if worldSize, _ := tc.cfg.ranks(); reads != worldSize {
			t.Errorf("%+v: %d dass.read spans, want one per rank (%d)", tc.cfg, reads, worldSize)
		}
		if i == 0 {
			ref = rep
			continue
		}
		for k := range ref.Output.Data {
			if math.Float64bits(rep.Output.Data[k]) != math.Float64bits(ref.Output.Data[k]) {
				t.Fatalf("%+v: output differs from the 1-core run at %d", tc.cfg, k)
			}
		}
		if tc.cfg.Mode == Hybrid && rep.ReadTrace != ref.ReadTrace {
			t.Errorf("%+v: read trace %+v, 1-core %+v", tc.cfg, rep.ReadTrace, ref.ReadTrace)
		}
	}
}
