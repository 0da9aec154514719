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
// simulated uops/sec) after the tables.
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
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
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

	// art collects each sweep's results (via Options.OnResult, keyed by
	// submission index) and writes them as per-run manifests after the
	// sweep.
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

	runExp := func(name string, fn func() (*sccsim.SweepSummary, error)) bool {
		t0 := time.Now()
		art.begin(name)
		if spanTracer != nil {
			// One root span per sweep; every scheduled run's harness.run
			// span hangs under it via the options context.
			root := spanTracer.StartSpan("sweep:"+name, tracing.SpanID{})
			opts.Ctx = tracing.NewContext(context.Background(), spanTracer, root)
			defer root.End()
		}
		sum, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %s: %v\n", name, err)
			return false
		}
		if sum != nil {
			fmt.Printf("\n[%s sweep: %s]\n", name, sum)
			if err := art.finish(name); err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: %s: %v\n", name, err)
				return false
			}
		}
		fmt.Printf("[%s completed in %v]\n", name, time.Since(t0).Round(time.Millisecond))
		return true
	}

	experiments := map[string]func() (*sccsim.SweepSummary, error){
		"table1": func() (*sccsim.SweepSummary, error) { sccsim.Table1(os.Stdout); return nil, nil },
		"fig6": func() (*sccsim.SweepSummary, error) {
			f, err := sccsim.Figure6(opts)
			if err != nil {
				return nil, err
			}
			f.Write(os.Stdout)
			return f.Timing, nil
		},
		"fig7": func() (*sccsim.SweepSummary, error) {
			f, err := sccsim.Figure7(opts)
			if err != nil {
				return nil, err
			}
			f.Write(os.Stdout)
			return f.Timing, nil
		},
		"fig8": func() (*sccsim.SweepSummary, error) {
			f, err := sccsim.Figure8(opts)
			if err != nil {
				return nil, err
			}
			f.Write(os.Stdout)
			return f.Timing, nil
		},
		"fig9": func() (*sccsim.SweepSummary, error) {
			f, err := sccsim.Figure9(opts)
			if err != nil {
				return nil, err
			}
			f.Write(os.Stdout)
			return f.Timing, nil
		},
		"fig10": func() (*sccsim.SweepSummary, error) {
			f, err := sccsim.Figure10(opts)
			if err != nil {
				return nil, err
			}
			f.Write(os.Stdout)
			return f.Timing, nil
		},
		"fig11": func() (*sccsim.SweepSummary, error) {
			f, err := sccsim.Figure11(opts)
			if err != nil {
				return nil, err
			}
			f.Write(os.Stdout)
			return f.Timing, nil
		},
		"overhead": func() (*sccsim.SweepSummary, error) { sccsim.Overheads(os.Stdout); return nil, nil },
		"simpoint-snapshot": func() (*sccsim.SweepSummary, error) {
			f, err := sccsim.SimPointSweep(opts)
			if err != nil {
				return nil, err
			}
			f.Write(os.Stdout)
			return nil, nil
		},
		"ext": func() (*sccsim.SweepSummary, error) {
			f, err := sccsim.Extension(opts)
			if err != nil {
				return nil, err
			}
			f.Write(os.Stdout)
			return f.Timing, nil
		},
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

// artifacts accumulates run results per sweep and writes the -json
// output.
type artifacts struct {
	jsonDir string
	results map[int]*harness.RunResult // current sweep, by submission index
	index   *obs.Index
}

func (a *artifacts) begin(string) { a.results = map[int]*harness.RunResult{} }

// collect is the harness OnResult hook; the scheduler hands results back
// in submission order after each sweep completes.
func (a *artifacts) collect(i int, r *harness.RunResult) { a.results[i] = r }

// finish writes the finished sweep's manifests.
func (a *artifacts) finish(name string) error {
	idxs := make([]int, 0, len(a.results))
	for i := range a.results {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		man := a.results[i].Manifest()
		// Content-addressed name (the result cache's): identical
		// (workload, config) runs from different experiments produce
		// identical stats, so overwriting is idempotent by construction.
		file, err := harness.WriteManifest(a.jsonDir, man)
		if err != nil {
			return err
		}
		a.index.Add(file, name, man)
	}
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
