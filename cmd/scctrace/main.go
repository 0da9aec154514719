// Command scctrace inspects the SCC unit's compaction decisions on a
// workload: it runs the simulation, then dumps every compacted line
// resident in the optimized partition — the transformed micro-ops, the
// predicted invariants with their confidence counters, the live-outs, and
// the per-line streaming/squash history — plus a unit-level summary.
//
//	scctrace -workload xalancbmk
//	scctrace -workload gcc -max-uops 50000 -top 5
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"sccsim"
	"sccsim/internal/harness"
	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/telemetry"
	"sccsim/internal/uopcache"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload  = flag.String("workload", "", "built-in workload name")
		maxUops   = flag.Uint64("max-uops", 0, "program-work budget (0 = workload default)")
		top       = flag.Int("top", 10, "show the N most-streamed compacted lines")
		level     = flag.Int("scc-level", int(scc.LevelFull), "SCC optimization level 2..5")
		pipeview  = flag.String("pipeview", "", "write a per-uop pipeline lifecycle trace (gem5 O3PipeView format, opens in Konata) to this path")
		pipeviewN = flag.Int("pipeview-limit", obs.DefaultPipeTraceLimit,
			"retain the last N micro-ops in the -pipeview trace")
		optReport = flag.String("optreport", "", "write the SCC optimization report to this path (\"-\" = stdout text, .json = JSON)")
		version   = flag.Bool("version", false, "print the simulator version and exit")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the simulator to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile of the simulator to this path")

		logLevel    = flag.String("log-level", "warn", "structured log threshold on stderr: "+telemetry.LogLevels)
		logFormat   = flag.String("log-format", "text", "structured log encoding: "+telemetry.LogFormats)
		metricsDump = flag.String("metrics-dump", "", "write the Prometheus metrics exposition to this path at exit (\"-\" = stdout)")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("scctrace"))
		return 0
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scctrace: %v\n", err)
		return 2
	}
	defer func() {
		if *metricsDump != "" {
			if err := telemetry.DumpMetrics(*metricsDump, telemetry.Default()); err != nil {
				fmt.Fprintf(os.Stderr, "scctrace: %v\n", err)
			}
		}
	}()
	if *pipeview != "" && *pipeviewN <= 0 {
		fmt.Fprintf(os.Stderr, "scctrace: -pipeview-limit must be positive (got %d)\n", *pipeviewN)
		return 2
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "scctrace: need -workload (see sccsim -list)")
		return 2
	}
	w, ok := sccsim.WorkloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "scctrace: unknown workload %q\n", *workload)
		return 2
	}
	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scctrace:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "scctrace:", err)
		}
	}()
	// The same scheduled run path as sccsim and sccbench: budget override,
	// workload memory init, runner metrics, and a simulation panic
	// reported as an error. Observe keeps the machine, because the line
	// dump below inspects the optimized partition after the run.
	var tracer *obs.PipeTracer
	if *pipeview != "" {
		tracer = obs.NewPipeTracer(*pipeviewN)
	}
	var m *pipeline.Machine
	opts := harness.Options{
		MaxUops: *maxUops,
		Logger:  logger,
		Journal: *optReport != "",
		Observe: func(pm *pipeline.Machine) {
			m = pm
			if tracer != nil {
				tracer.Attach(pm)
			}
		},
	}
	res, err := harness.RunOne(sccsim.SCCConfig(scc.Level(*level)), w, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scctrace:", err)
		return 1
	}
	st := res.Stats
	if tracer != nil {
		if err := tracer.WriteFile(*pipeview); err != nil {
			fmt.Fprintln(os.Stderr, "scctrace:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "scctrace: wrote pipeline trace %s (%d of %d uops retained; open in Konata)\n",
			*pipeview, tracer.Total()-tracer.Dropped(), tracer.Total())
	}
	if rep := res.OptReport; rep != nil {
		if err := obs.WriteOptReport(rep, *optReport); err != nil {
			fmt.Fprintln(os.Stderr, "scctrace:", err)
			return 1
		}
		if *optReport != "-" {
			fmt.Fprintf(os.Stderr, "scctrace: wrote opt-report %s (%d lines, %d squash records)\n",
				*optReport, rep.Lines, len(rep.Forensics))
		}
	}

	u := m.Unit.Stats
	fmt.Printf("workload %s: %d cycles, %d committed uops, %d eliminated (%.1f%%)\n",
		w.Name, st.Cycles, st.CommittedUops, st.EliminatedUops(),
		st.DynamicUopReduction()*100)
	fmt.Printf("unit: %d requests (%d rejected), %d jobs -> %d committed, %d discarded, %d aborted\n",
		u.Requests, u.Rejected, u.Jobs, u.Committed, u.Discarded, u.Aborted)
	fmt.Printf("      %d moves, %d folds, %d branches eliminated; %d operands propagated\n",
		u.ElimMove, u.ElimFold, u.ElimBranch, u.Propagated)
	fmt.Printf("      %d data + %d control invariants identified; busy %d cycles\n",
		u.DataInvariants, u.CtrlInvariants, u.BusyCycles)
	fmt.Printf("streaming: %d validated streams, %d violations, %d uops squashed\n\n",
		st.OptStreams, st.InvariantViolations, st.SquashedUops)

	lines := m.UC.Opt.Lines()
	sort.Slice(lines, func(i, j int) bool {
		return lines[i].Meta.Streams > lines[j].Meta.Streams
	})
	if len(lines) > *top {
		fmt.Printf("showing the %d most-streamed of %d resident compacted lines\n\n", *top, len(lines))
		lines = lines[:*top]
	}
	for _, l := range lines {
		dumpLine(l)
	}
	return 0
}

func dumpLine(l *uopcache.Line) {
	m := l.Meta
	fmt.Printf("line @ %#x: %d slots (from %d; shrinkage %d), streamed %d times, %d squashes, hot %d\n",
		l.EntryPC, l.Slots, m.OrigSlots, m.Shrinkage(l.Slots), m.Streams, m.Squashes, l.Hot)
	fmt.Printf("  eliminated here: %d moves, %d folds, %d branches; %d propagated; resumes at %#x\n",
		m.ElimMove, m.ElimFold, m.ElimBranch, m.Propagated, m.EndPC)
	for i := range l.Uops {
		fmt.Printf("  %2d: %v\n", i, &l.Uops[i])
	}
	for _, d := range m.DataInv {
		fmt.Printf("  data invariant  pc=%#x value=%-12d conf=%d/15\n", d.PC, d.Value, d.Conf)
	}
	for _, ci := range m.CtrlInv {
		fmt.Printf("  ctrl invariant  pc=%#x taken=%-5v target=%#x conf=%d/15\n",
			ci.PC, ci.Taken, ci.Target, ci.Conf)
	}
	if len(m.LiveOuts) > 0 {
		fmt.Printf("  live-outs:")
		for _, lo := range m.LiveOuts {
			fmt.Printf(" %s=%d", lo.Reg, lo.Value)
		}
		fmt.Println()
	}
	fmt.Println()
}
