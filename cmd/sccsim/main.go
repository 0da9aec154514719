// Command sccsim runs one workload under one configuration — the
// equivalent of the paper artifact's gem5 se.py invocation. Flag names
// mirror the artifact's options where they exist.
//
// Examples:
//
//	sccsim -workload xalancbmk                          # baseline
//	sccsim -workload xalancbmk -enable-superoptimization
//	sccsim -workload xalancbmk -enable-superoptimization -top 5
//	sccsim -program my.uxa -enable-superoptimization -lvpred h3vp
//	sccsim -workload mcf -json run.json -trace run.trace
//	sccsim -list
//
// -json writes the machine-readable run manifest (config, stats, energy,
// interval-sampled telemetry); -trace writes the run's span tree as a
// Chrome trace-event file viewable in Perfetto, and -trace-out the same
// tree as OTLP-compatible JSON. -json and -trace enable interval
// sampling (every -sample-interval committed uops). -top N follows the
// report with the SCC unit's summary and the N most-streamed compacted
// lines of the optimized partition: their micro-ops, invariants and
// confidences, live-outs and hotness. -cpuprofile/-memprofile profile
// the simulator itself.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"sccsim"
	"sccsim/internal/asm"
	"sccsim/internal/harness"
	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/stats"
	"sccsim/internal/telemetry"
	"sccsim/internal/tracing"
	"sccsim/internal/workloads"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "built-in workload name (see -list)")
		program  = flag.String("program", "", "path to a UXA assembly file to run instead")
		list     = flag.Bool("list", false, "list built-in workloads and exit")
		enable   = flag.Bool("enable-superoptimization", false, "enable SCC (full level)")
		level    = flag.Int("scc-level", int(scc.LevelFull), "SCC optimization level 0..5 (with -enable-superoptimization)")
		lvpred   = flag.String("lvpred", "eves", "value predictor: eves | h3vp | lastvalue")
		confThr  = flag.Int("predictionConfidenceThreshold", 5, "min VP confidence for data invariants")
		optSets  = flag.Int("specCacheNumSets", 24, "optimized-partition sets (of 48 total)")
		width    = flag.Int("const-width", 64, "inlined-constant width in bits (8/16/32/64)")
		maxUops  = flag.Uint64("max-uops", 0, "program-work budget in micro-ops (0 = workload default)")
		verbose  = flag.Bool("v", false, "print the full counter dump")
		top      = flag.Int("top", 0, "after the report, dump the N most-streamed compacted lines (needs -enable-superoptimization, -scc-level >= 2)")

		version   = flag.Bool("version", false, "print the simulator version and exit")
		jsonPath  = flag.String("json", "", "write the JSON run manifest to this path")
		optReport = flag.String("optreport", "", "write the SCC optimization report to this path (\"-\" = stdout text, .json = JSON)")
		tracePath = flag.String("trace", "", "write the run's span tree as a Chrome trace-event (Perfetto) file to this path")
		pipeview  = flag.String("pipeview", "", "write a per-uop pipeline lifecycle trace (gem5 O3PipeView format, opens in Konata) to this path")
		pipeviewN = flag.Int("pipeview-limit", obs.DefaultPipeTraceLimit,
			"retain the last N micro-ops in the -pipeview trace")
		traceOut   = flag.String("trace-out", "", "write the run's span tree as OTLP-compatible JSON to this path")
		sampleIv   = flag.Uint64("sample-interval", 10_000, "telemetry sampling interval in committed uops (with -json/-trace)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the simulator to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile of the simulator to this path")

		logLevel    = flag.String("log-level", "warn", "structured log threshold on stderr: "+telemetry.LogLevels)
		logFormat   = flag.String("log-format", "text", "structured log encoding: "+telemetry.LogFormats)
		metricsDump = flag.String("metrics-dump", "", "write the Prometheus metrics exposition to this path at exit (\"-\" = stdout)")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString("sccsim"))
		return 0
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccsim: %v\n", err)
		return 2
	}
	defer func() {
		if *metricsDump != "" {
			if err := telemetry.DumpMetrics(*metricsDump, telemetry.Default()); err != nil {
				fmt.Fprintf(os.Stderr, "sccsim: %v\n", err)
			}
		}
	}()
	if *pipeview != "" && *pipeviewN <= 0 {
		fmt.Fprintf(os.Stderr, "sccsim: -pipeview-limit must be positive (got %d)\n", *pipeviewN)
		return 2
	}
	if *level < int(scc.LevelBaseline) || *level > int(scc.LevelFull) {
		fmt.Fprintf(os.Stderr, "sccsim: -scc-level must be 0..5 (got %d)\n", *level)
		return 2
	}
	switch {
	case *top < 0:
		fmt.Fprintf(os.Stderr, "sccsim: -top must be >= 0 (got %d)\n", *top)
		return 2
	case *top > 0 && !*enable:
		fmt.Fprintln(os.Stderr, "sccsim: -top needs -enable-superoptimization (it dumps the SCC unit's lines)")
		return 2
	case *top > 0 && *level < int(scc.LevelMoveElim):
		fmt.Fprintf(os.Stderr, "sccsim: -top needs -scc-level >= 2 (level %d has no SCC unit)\n", *level)
		return 2
	}

	if *list {
		for _, w := range sccsim.Workloads() {
			fmt.Printf("%-14s %-7s %-16s %s\n", w.Name, w.Suite, w.Class, w.Description)
		}
		return 0
	}

	cfg := sccsim.BaselineConfig()
	if *enable {
		cfg = sccsim.SCCConfig(scc.Level(*level)).
			WithValuePredictor(*lvpred).
			WithConstWidth(*width).
			WithPartitionSplit(*optSets)
		cfg.SCC.VPConfThreshold = *confThr
	} else {
		cfg = cfg.WithValuePredictor(*lvpred)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "sccsim: %v\n", err)
		return 2
	}

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccsim: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "sccsim: %v\n", err)
		}
	}()

	opts := sccsim.Options{MaxUops: *maxUops, Logger: logger}
	if *jsonPath != "" || *tracePath != "" {
		opts.SampleEvery = *sampleIv
	}
	opts.Journal = *optReport != ""
	var tracer *obs.PipeTracer
	if *pipeview != "" {
		tracer = obs.NewPipeTracer(*pipeviewN)
	}
	var m *pipeline.Machine // the run's machine, which -top inspects
	opts.Observe = func(pm *pipeline.Machine) {
		m = pm
		if tracer != nil {
			tracer.Attach(pm)
		}
	}
	var spanTracer *tracing.Tracer
	if *traceOut != "" || *tracePath != "" {
		spanTracer = tracing.New(tracing.MintTraceID())
		root := spanTracer.StartSpan("sccsim", tracing.SpanID{})
		opts.Ctx = tracing.NewContext(context.Background(), spanTracer, root)
	}
	var res *harness.RunResult
	switch {
	case *program != "":
		res, err = runFile(cfg, *program, opts)
	case *workload != "":
		w, ok := sccsim.WorkloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "sccsim: unknown workload %q (try -list)\n", *workload)
			return 2
		}
		res, err = harness.RunOne(cfg, w, opts)
	default:
		fmt.Fprintln(os.Stderr, "sccsim: need -workload or -program (or -list)")
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccsim: %v\n", err)
		return 1
	}
	report(res, *verbose)
	if *top > 0 {
		writeTop(os.Stdout, res, m.UC.Opt, *top)
	}
	var spans []tracing.SpanData
	if spanTracer != nil {
		spanTracer.Finish()
		spans = spanTracer.Spans()
	}
	if *traceOut != "" {
		if err := tracing.WriteOTLPFile(*traceOut, "sccsim", spans); err != nil {
			fmt.Fprintf(os.Stderr, "sccsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "sccsim: wrote span trace %s (trace id %s)\n",
			*traceOut, spanTracer.TraceID())
	}
	if err := writeArtifacts(res, *jsonPath, *tracePath, spans); err != nil {
		fmt.Fprintf(os.Stderr, "sccsim: %v\n", err)
		return 1
	}
	if *optReport != "" && res.OptReport != nil {
		if err := obs.WriteOptReport(res.OptReport, *optReport); err != nil {
			fmt.Fprintf(os.Stderr, "sccsim: %v\n", err)
			return 1
		}
		if *optReport != "-" {
			fmt.Fprintf(os.Stderr, "sccsim: wrote opt-report %s (%d lines, %d squash records)\n",
				*optReport, res.OptReport.Lines, len(res.OptReport.Forensics))
		}
	}
	if tracer != nil {
		if err := tracer.WriteFile(*pipeview); err != nil {
			fmt.Fprintf(os.Stderr, "sccsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "sccsim: wrote pipeline trace %s (%d of %d uops retained; open in Konata)\n",
			*pipeview, tracer.Total()-tracer.Dropped(), tracer.Total())
	}
	return 0
}

// writeArtifacts emits the -json manifest and the -trace rendering of
// the run's span tree.
func writeArtifacts(res *harness.RunResult, jsonPath, tracePath string, spans []tracing.SpanData) error {
	if jsonPath != "" {
		man := res.Manifest()
		if err := man.WriteFile(jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sccsim: wrote manifest %s (%d sample intervals)\n",
			jsonPath, len(man.Samples))
	}
	if tracePath != "" {
		if err := obs.NewTrace(spans).WriteFile(tracePath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sccsim: wrote trace %s (open at ui.perfetto.dev)\n", tracePath)
	}
	return nil
}

func runFile(cfg sccsim.Config, path string, opts sccsim.Options) (*harness.RunResult, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if _, err := asm.Assemble(string(src)); err != nil {
		return nil, err
	}
	if opts.MaxUops == 0 {
		opts.MaxUops = 1 << 62
	}
	w := workloads.Workload{Name: path, Source: string(src), DefaultMaxUops: opts.MaxUops}
	return harness.RunOne(cfg, w, opts)
}

func report(res *harness.RunResult, verbose bool) {
	st := res.Stats
	fmt.Printf("workload:            %s\n", res.Workload)
	fmt.Printf("cycles:              %d\n", st.Cycles)
	fmt.Printf("committed uops:      %d (IPC %.2f)\n", st.CommittedUops, st.IPC())
	fmt.Printf("eliminated uops:     %d (%s reduction; move %d / fold %d / branch %d / dead %d)\n",
		st.EliminatedUops(), stats.Pct(st.DynamicUopReduction()),
		st.ElimMove, st.ElimFold, st.ElimBranch, st.ElimDead)
	fmt.Printf("fetch mix:           icache %d / unopt %d / opt %d slots\n",
		st.UopsFromDecode, st.UopsFromUnopt, st.UopsFromOpt)
	fmt.Printf("branch mispredicts:  %d (%.2f MPKI)\n", st.BranchMispredicts, st.BranchMPKI())
	fmt.Printf("invariant squashes:  %d (%s of pipeline work)\n",
		st.InvariantViolations, stats.Pct(st.SquashOverhead()))
	cyc := float64(st.Cycles)
	pct := func(n uint64) string { return stats.Pct(stats.Ratio(float64(n), cyc)) }
	fmt.Printf("cpi stack:           retiring %s, bad-spec %s (mispredict %s / squash %s)\n",
		pct(st.CPIRetiring), pct(st.CPIBadSpec()),
		pct(st.CPIBadSpecMispredict), pct(st.CPIBadSpecSquash))
	fmt.Printf("                     backend %s (rob %s / iq %s / lsq %s / exec %s), frontend %s (icache %s / uop %s)\n",
		pct(st.CPIBackend()), pct(st.CPIBackendROB), pct(st.CPIBackendIQ),
		pct(st.CPIBackendLSQ), pct(st.CPIBackendExec),
		pct(st.CPIFrontend()), pct(st.CPIFrontendICache), pct(st.CPIFrontendUop))
	fmt.Printf("energy:              %.3g J (front-end %.3g, scc %.3g, back-end %.3g, memory %.3g, leakage %.3g)\n",
		res.Energy.Total(), res.Energy.FrontEnd, res.Energy.SCCUnit,
		res.Energy.BackEnd, res.Energy.Memory, res.Energy.Leakage)
	if res.Unit != nil {
		u := res.Unit
		fmt.Printf("scc unit:            %d jobs, %d lines committed, %d discarded, %d aborted, busy %d cycles\n",
			u.Jobs, u.Committed, u.Discarded, u.Aborted, u.BusyCycles)
	}
	if verbose {
		fmt.Printf("\nfull counters: %+v\n", *st)
		fmt.Printf("cache activity: %+v\n", res.Mem)
	}
}
