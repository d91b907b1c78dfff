// Command das_analyze runs a DAS analysis over a DASF file or VCA with the
// hybrid ArrayUDF execution engine: earthquake detection via local
// similarity (Algorithm 2) or traffic-noise interferometry (Algorithm 3).
//
// Examples:
//
//	das_analyze -in merged.vca.dasf -op localsimi -nodes 2 -cores 4 -out sim.dasf
//	das_analyze -in merged.vca.dasf -op interferometry -mode mpi
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"dassa/internal/arrayudf"
	"dassa/internal/cluster"
	"dassa/internal/dasf"
	"dassa/internal/dass"
	"dassa/internal/detect"
	"dassa/internal/faults"
	"dassa/internal/haee"
	"dassa/internal/obs"
	"dassa/internal/obs/trace"
)

// Exit codes, so scripted pipelines can branch on outcome: 0 = success
// (including degraded-but-completed, which prints a WARNING line), 1 = data
// error (unreadable input, failed run), 2 = usage error (bad flags).
const (
	exitData  = 1
	exitUsage = 2
)

// logger is the shared structured logger (obs.LogFlags); set right after
// flag parsing, before any fatal path can run.
var logger = obs.Nop()

// runCluster fans an analysis out across dassw shard workers and prints the
// same style of report as a local run, the op's summary first. Shards lost to
// worker failure are re-dispatched; under -fail-policy degrade whatever stays
// lost is NaN-masked into the quality report. An op that reads outside its
// shard runs only in process: a usage error here.
func runCluster(ctx context.Context, addrs string, req cluster.Request, policy dass.FailPolicy, outPath string, summary func(*dasf.Array2D)) {
	var workers []string
	for _, a := range strings.Split(addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			workers = append(workers, a)
		}
	}
	co, err := cluster.NewCoordinator(cluster.Config{
		Workers:    workers,
		FailPolicy: policy,
		Log:        logger,
		Registry:   obs.Default(),
	})
	if err != nil {
		fatalUsage("%v", err)
	}
	defer co.Close()
	res, err := co.Run(ctx, req)
	if errors.Is(err, cluster.ErrNotShardable) {
		fatalUsage("-workers: %v", err)
	}
	if err != nil {
		fatalData(err)
	}
	summary(res.Data)
	if outPath != "" {
		meta := dasf.Meta{"Producer": dasf.S("dassa-cluster")}
		if err := dasf.WriteData(outPath, meta, nil, res.Data, dasf.Float64); err != nil {
			fatalData(err)
		}
		fmt.Printf("result written to %s\n", outPath)
	}
	fmt.Printf("cluster: %d worker(s), %d shard(s), %d redispatched, %d degraded, wall %v\n",
		res.Workers, res.Shards, res.Redispatched, res.DegradedShards, res.Wall.Round(time.Millisecond))
	fmt.Printf("I/O: %d opens, %d read calls, %.1f MB read\n",
		res.Trace.Opens, res.Trace.Reads, float64(res.Trace.BytesRead)/1e6)
	warnDegraded(res.Quality)
}

// warnDegraded says what a degraded-but-completed run lost. It is still a
// success exit (0): the surviving channels are valid and the report says
// exactly what is missing.
func warnDegraded(q *dass.QualityReport) {
	if q.Degraded() {
		fmt.Printf("WARNING: run degraded; %s\n", q)
		for _, f := range q.LostFiles {
			fmt.Printf("WARNING:   lost member: %s\n", f)
		}
	}
}

// fatalUsage reports a bad invocation (exit 2).
func fatalUsage(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(exitUsage)
}

// fatalData reports a failed run over real data (exit 1).
func fatalData(v ...any) {
	logger.Error(fmt.Sprint(v...))
	os.Exit(exitData)
}

func main() {
	// The analyses and their flags are the registry's: one flag per distinct
	// parameter key, its help naming every op that declares it. Only a flag
	// the user set overrides the chosen op's default.
	var opNames []string
	keyHelp := map[string]string{}
	for _, o := range detect.Ops() {
		opNames = append(opNames, o.Name)
		for _, f := range detect.Fields(o.Default(1, 1)) {
			keyHelp[f.Key] += o.Name + ": " + f.Help + "; "
		}
	}
	for key, help := range keyHelp {
		flag.String(key, "", strings.TrimSuffix(help, "; "))
	}
	var (
		in    = flag.String("in", "", "input DASF data file or VCA (required)")
		op    = flag.String("op", detect.DefaultOp, "analysis: "+strings.Join(opNames, " | "))
		nodes = flag.Int("nodes", 1, "simulated compute nodes (MPI ranks in hybrid mode)")
		cores = flag.Int("cores", 4, "cores per node (threads in hybrid mode)")
		mode  = flag.String("mode", "hybrid", "execution mode: hybrid | mpi")
		read  = flag.String("read", "independent", "block read strategy: independent | commavoid")
		out   = flag.String("out", "", "write the result array to this DASF file")
		rate  = flag.Float64("rate", 0, "sampling rate override (Hz; default from metadata)")

		workers = flag.String("workers", "", "comma-separated dassw worker addresses; the analysis fans out across them instead of the in-process engine")

		traceRun = flag.Bool("trace", false, "record a request trace of the run and print the span tree afterwards")

		retries = flag.Int("retries", 0, "retry transient read failures up to N times (exponential backoff)")
		failPol = flag.String("fail-policy", "abort", "member file still bad after retries: abort | degrade (NaN gaps + quality report)")
		inject  = flag.String("inject", "", "fault injection spec for chaos testing, e.g. 'seed=1,transient=0.3,max=3,missing=a.dasf'")
	)
	newLogger := obs.LogFlags(nil)
	flag.Parse()
	var logErr error
	if logger, logErr = newLogger(os.Stderr); logErr != nil {
		fmt.Fprintf(os.Stderr, "das_analyze: %v\n", logErr)
		os.Exit(exitUsage)
	}
	slog.SetDefault(logger)
	if *in == "" {
		fatalUsage("-in is required")
	}
	policy, err := dass.ParseFailPolicy(*failPol)
	if err != nil {
		fatalUsage("%v", err)
	}
	if *retries < 0 {
		fatalUsage("-retries must be ≥ 0, got %d", *retries)
	}
	if *retries > 0 {
		dasf.SetRetryPolicy(faults.WithRetries(*retries))
	}
	if *inject != "" {
		cfg, err := faults.ParseSpec(*inject)
		if err != nil {
			fatalUsage("%v", err)
		}
		dasf.SetInjector(faults.New(cfg))
	}

	v, err := dass.OpenView(*in)
	if err != nil {
		fatalData(err)
	}
	nch, nt := v.Shape()
	sampleRate := *rate
	if sampleRate == 0 {
		sampleRate = v.Info().SampleRate()
	}
	if sampleRate == 0 {
		fatalUsage("sampling rate unknown; pass -rate")
	}
	fmt.Printf("input: %s (%d channels × %d samples, %d file(s), %.0f Hz)\n",
		*in, nch, nt, v.NumMembers(), sampleRate)

	// -trace: record the run into a one-shot local store; the cluster
	// coordinator and the local engine both annotate through the view's
	// context, and workers ship their spans back over the wire, so the
	// printed tree is the same cross-process view dassd serves at
	// /debug/traces/{id}.
	ctx := context.Background()
	var traceStore *trace.Store
	var traceRoot *trace.Span
	if *traceRun {
		traceStore = trace.NewStore(1, 1)
		ctx, traceRoot = trace.New(ctx, traceStore, "das_analyze", trace.NewID(), "analyze "+*op)
		v = v.WithContext(ctx)
	}

	// The op's parameters: the registry's defaults, overridden by the flags
	// the user set, bounded against the view once. What either path below
	// runs, and the summary both print, come from them.
	o, ok := detect.Lookup(*op)
	if !ok {
		fatalUsage("unknown -op %q (want %s)", *op, strings.Join(opNames, ", "))
	}
	p := o.Default(sampleRate, nt)
	flag.Visit(func(f *flag.Flag) {
		if keyHelp[f.Name] == "" {
			return
		}
		if err := detect.Set(p, f.Name, f.Value.String()); err != nil {
			fatalUsage("-%s: %v", f.Name, err)
		}
	})
	if err := p.Validate(nch, nt); err != nil {
		fatalUsage("%v", err)
	}
	detect.SetFailPolicy(p, policy)
	summary := func(out *dasf.Array2D) { fmt.Println(o.Summary(p, out, nt, sampleRate)) }

	if *workers != "" {
		runCluster(ctx, *workers, cluster.Request{View: v, Params: p}, policy, *out, summary)
		printTrace(traceStore, traceRoot)
		return
	}

	engMode := haee.Hybrid
	if *mode == "mpi" {
		engMode = haee.PureMPI
	} else if *mode != "hybrid" {
		fatalUsage("unknown -mode %q", *mode)
	}
	engCfg := haee.Config{Nodes: *nodes, CoresPerNode: *cores, Mode: engMode, FailPolicy: policy}
	switch *read {
	case "independent":
	case "commavoid":
		engCfg.ReadStrategy = arrayudf.CommAvoidingRead
	default:
		fatalUsage("unknown -read %q", *read)
	}
	rep, err := haee.New(engCfg).Run(v, p.Workload(nt), *out)
	if err != nil {
		fatalData(err)
	}
	summary(rep.Output)

	fmt.Printf("engine: %s, %d node(s) × %d core(s)\n", engMode, *nodes, *cores)
	fmt.Printf("phases: %s, total %.1fms\n", rep.Phases, float64(rep.Total())/1e6)
	fmt.Printf("I/O: %d opens, %d read calls, %.1f MB read; est. memory/node %.1f MB\n",
		rep.ReadTrace.Opens, rep.ReadTrace.Reads, float64(rep.ReadTrace.BytesRead)/1e6,
		float64(rep.MemPerNode)/1e6)
	if tr := rep.ReadTrace; tr.Retries > 0 || tr.Faults > 0 || tr.SlowReads > 0 || tr.MaskedSamples > 0 {
		fmt.Printf("robustness: %d retries, %d faults, %d slow reads, %d masked samples\n",
			tr.Retries, tr.Faults, tr.SlowReads, tr.MaskedSamples)
	}
	if *out != "" {
		fmt.Printf("result written to %s\n", *out)
	}
	warnDegraded(rep.Quality)
	printTrace(traceStore, traceRoot)
}

// printTrace ends the -trace root span and prints the recorded span tree.
// A nil store (no -trace) is a no-op.
func printTrace(store *trace.Store, root *trace.Span) {
	if store == nil {
		return
	}
	root.End()
	for _, td := range store.Recent() {
		fmt.Println()
		trace.WriteTree(os.Stdout, td)
	}
}
