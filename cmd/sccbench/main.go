// Command sccbench regenerates the paper's tables and figures.
//
//	sccbench -experiment all
//	sccbench -experiment fig6
//	sccbench -experiment fig9 -max-uops 60000
//	sccbench -experiment fig6 -workloads xalancbmk,mcf,lbm
//	sccbench -experiment all -parallel 8 -progress
//	sccbench -experiment fig6 -json manifests/ -trace sweep.trace
//
// Sweeps fan out across -parallel workers (default GOMAXPROCS); the
// rendered tables are byte-identical to a serial run regardless of the
// setting, and each experiment reports its sweep telemetry (wall clock,
// simulated uops/sec) after the tables. The experiments of one
// invocation share runs: a (workload, configuration) run that an earlier
// experiment simulated is reused, not simulated again, and the sweep
// line counts it as reused.
//
// Observability: -json <dir> writes one JSON manifest per (workload,
// configuration) run — content-addressed by config hash, so re-runs
// overwrite idempotently — plus an index.json aggregate; each manifest
// carries the run's scc_report opt-report summary. -trace <path> writes
// the sweeps' span trees as a Chrome trace-event file viewable in
// Perfetto (one process per sweep, its concurrent runs on separate
// lanes); -trace-out writes the same trees as OTLP-compatible JSON.
// -progress renders a live n/total + ETA line on stderr.
// -cpuprofile/-memprofile profile the simulator itself.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"sccsim"
	"sccsim/internal/harness"
	"sccsim/internal/obs"
	"sccsim/internal/telemetry"
	"sccsim/internal/tracing"
	"sccsim/internal/workloads"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		experiment = flag.String("experiment", "all",
			"table1 | fig6 | fig7 | fig8 | fig9 | fig10 | fig11 | overhead | ext | simpoint-snapshot | all, or a comma-separated list (all excludes simpoint-snapshot)")
		maxUops  = flag.Uint64("max-uops", 0, "interval length override in micro-ops (0 = workload defaults)")
		subset   = flag.String("workloads", "", "comma-separated workload subset (default: all 19)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"simulation runs in flight at once (1 = serial)")

		snapshotDir = flag.String("snapshot-dir", "",
			"warmup snapshot store directory for simpoint-snapshot: detailed warmup state persists here keyed by (workload, warmup hash, interval length, boundary) and later sweeps restore instead of re-warming")
		snapshotMaxBytes = flag.Int64("snapshot-max-bytes", 0,
			"snapshot store size cap in bytes; least-recently-used slots are evicted past it (0 = unbounded)")

		jsonDir    = flag.String("json", "", "write one JSON manifest per run (plus index.json) into this directory")
		traceOut   = flag.String("trace-out", "", "write the sweeps' span trees as OTLP-compatible JSON to this path (one root span per sweep, one child per scheduled run)")
		cacheDir   = flag.String("cache", "", "result-cache directory: reuse matching manifests instead of re-simulating, write back misses (any -json output directory works)")
		tracePath  = flag.String("trace", "", "write the sweeps' span trees as a Chrome trace-event (Perfetto) file to this path")
		sampleIv   = flag.Uint64("sample-interval", 10_000, "telemetry sampling interval in committed uops (with -json/-trace)")
		progress   = flag.Bool("progress", false, "live sweep progress line (n/total, ETA) on stderr")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the harness to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile of the harness to this path")
		version    = flag.Bool("version", false, "print the simulator version and exit")

		logLevel    = flag.String("log-level", "warn", "structured log threshold on stderr: "+telemetry.LogLevels)
		logFormat   = flag.String("log-format", "text", "structured log encoding: "+telemetry.LogFormats)
		metricsDump = flag.String("metrics-dump", "", "write the Prometheus metrics exposition to this path at exit (\"-\" = stdout)")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString("sccbench"))
		return 0
	}
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "sccbench: -parallel must be >= 0 (0 = GOMAXPROCS), got %d\n", *parallel)
		return 2
	}
	if *snapshotMaxBytes < 0 {
		fmt.Fprintf(os.Stderr, "sccbench: -snapshot-max-bytes must be >= 0 (0 = unbounded), got %d\n", *snapshotMaxBytes)
		return 2
	}
	if *snapshotDir != "" {
		if info, err := os.Stat(*snapshotDir); err == nil && !info.IsDir() {
			fmt.Fprintf(os.Stderr, "sccbench: -snapshot-dir %s exists and is not a directory\n", *snapshotDir)
			return 2
		}
	}
	selected := []string{"table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "overhead", "ext"}
	if *experiment != "all" {
		selected = strings.Split(*experiment, ",")
	}
	for i, name := range selected {
		selected[i] = strings.TrimSpace(name)
	}
	if slices.Contains(selected, "simpoint-snapshot") {
		// The SimPoint estimates are not per-run results: there is no
		// manifest to write or to serve from a cache.
		for _, f := range []struct{ name, dir string }{{"-json", *jsonDir}, {"-cache", *cacheDir}} {
			if f.dir != "" {
				fmt.Fprintf(os.Stderr, "sccbench: %s does not apply to simpoint-snapshot, which writes no run manifests\n", f.name)
				return 2
			}
		}
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
		return 2
	}
	defer func() {
		if *metricsDump != "" {
			if err := telemetry.DumpMetrics(*metricsDump, telemetry.Default()); err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
			}
		}
	}()

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
		}
	}()

	opts := sccsim.Options{MaxUops: *maxUops, Parallel: *parallel, Logger: logger,
		SnapshotDir: *snapshotDir, SnapshotMaxBytes: *snapshotMaxBytes}
	if *subset != "" {
		for _, name := range strings.Split(*subset, ",") {
			w, ok := workloads.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "sccbench: unknown workload %q\n", name)
				return 2
			}
			opts.Workloads = append(opts.Workloads, w)
		}
	}
	if *jsonDir != "" || *tracePath != "" {
		opts.SampleEvery = *sampleIv
	}
	// Every manifest sccbench writes carries the scc_report summary,
	// whose transform tallies sccdiff -explain diffs.
	opts.Journal = *jsonDir != "" || *cacheDir != ""
	if *progress {
		opts.Progress = obs.ProgressPrinter(os.Stderr)
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
			return 1
		}
	}

	// art collects each sweep's results (via Options.OnResult) and writes
	// them as per-run manifests after the sweep.
	art := &artifacts{jsonDir: *jsonDir, index: obs.NewIndex()}
	if *jsonDir != "" {
		opts.OnResult = art.collect
	}
	var cacheHits, cacheRuns int
	if *cacheDir != "" {
		opts.CacheDir = *cacheDir
		inner := opts.OnResult
		opts.OnResult = func(i int, r *harness.RunResult) {
			cacheRuns++
			if r.FromCache {
				cacheHits++
			}
			if inner != nil {
				inner(i, r)
			}
		}
	}

	var spanTracer *tracing.Tracer
	if *traceOut != "" || *tracePath != "" {
		spanTracer = tracing.New(tracing.MintTraceID())
	}

	runExp := func(name string, fn func() (report, error)) bool {
		t0 := time.Now()
		if spanTracer != nil {
			// One root span per sweep; every scheduled run's harness.run
			// span hangs under it via the options context.
			root := spanTracer.StartSpan("sweep:"+name, tracing.SpanID{})
			opts.Ctx = tracing.NewContext(context.Background(), spanTracer, root)
			defer root.End()
		}
		rep, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %s: %v\n", name, err)
			return false
		}
		rep.Write(os.Stdout)
		if sw, ok := rep.(interface{ Summary() string }); ok {
			fmt.Printf("\n[%s sweep: %s]\n", name, sw.Summary())
			if err := art.finish(name); err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: %s: %v\n", name, err)
				return false
			}
		}
		fmt.Printf("[%s completed in %v]\n", name, time.Since(t0).Round(time.Millisecond))
		return true
	}

	// One session per invocation: a run an experiment simulated is
	// reused by every later experiment that needs the same run.
	sess := harness.NewSession()
	experiments := map[string]func() (report, error){
		"table1":            func() (report, error) { return printOnly(sccsim.Table1), nil },
		"fig6":              func() (report, error) { return sess.Fig6(opts) },
		"fig7":              func() (report, error) { return sess.Fig7(opts) },
		"fig8":              func() (report, error) { return sess.Fig8(opts) },
		"fig9":              func() (report, error) { return sess.Fig9(opts) },
		"fig10":             func() (report, error) { return sess.Fig10(opts) },
		"fig11":             func() (report, error) { return sess.Fig11(opts) },
		"overhead":          func() (report, error) { return printOnly(sccsim.Overheads), nil },
		"simpoint-snapshot": func() (report, error) { return sccsim.SimPointSweep(opts) },
		"ext":               func() (report, error) { return sess.Ext(opts) },
	}

	for _, name := range selected {
		if _, ok := experiments[name]; !ok {
			fmt.Fprintf(os.Stderr, "sccbench: unknown experiment %q\n", name)
			return 2
		}
	}
	for _, name := range selected {
		if !runExp(name, experiments[name]) {
			return 1
		}
	}
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "sccbench: result cache %s: %d/%d runs served from cache\n",
			*cacheDir, cacheHits, cacheRuns)
	}
	if spanTracer != nil {
		spanTracer.Finish()
		spans := spanTracer.Spans()
		if *traceOut != "" {
			if err := tracing.WriteOTLPFile(*traceOut, "sccbench", spans); err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "sccbench: wrote span trace %s (trace id %s)\n",
				*traceOut, spanTracer.TraceID())
		}
		if *tracePath != "" {
			if err := obs.NewTrace(spans).WriteFile(*tracePath); err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "sccbench: wrote trace %s (open at ui.perfetto.dev)\n", *tracePath)
		}
	}
	return art.flush()
}

// report is what an experiment prints. A grid experiment's report also
// has a Summary of its sweep.
type report interface{ Write(io.Writer) }

// printOnly is the report of an experiment that runs nothing per
// workload: a table writer.
type printOnly func(io.Writer)

func (p printOnly) Write(w io.Writer) { p(w) }

// artifacts accumulates a sweep's run results and writes the -json
// output.
type artifacts struct {
	jsonDir string
	results []*harness.RunResult // current sweep's cells, in order
	index   *obs.Index
}

// collect is the harness OnResult hook; a grid hands its cells over in
// order after each sweep completes.
func (a *artifacts) collect(_ int, r *harness.RunResult) { a.results = append(a.results, r) }

// finish writes the finished sweep's manifests.
func (a *artifacts) finish(name string) error {
	for _, r := range a.results {
		man := r.Manifest()
		// Content-addressed name (the result cache's): identical
		// (workload, config) runs from different experiments produce
		// identical stats, so overwriting is idempotent by construction.
		file, err := harness.WriteManifest(a.jsonDir, man)
		if err != nil {
			return err
		}
		a.index.Add(file, name, man)
	}
	a.results = nil
	return nil
}

// flush writes index.json.
func (a *artifacts) flush() int {
	if a.jsonDir == "" {
		return 0
	}
	if err := a.index.WriteFile(filepath.Join(a.jsonDir, "index.json")); err != nil {
		fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "sccbench: wrote %d manifests + index.json to %s\n",
		len(a.index.Entries), a.jsonDir)
	return 0
}
