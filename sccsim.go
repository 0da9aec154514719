// Package sccsim is a cycle-level microarchitectural simulator reproducing
// "Speculative Code Compaction: Eliminating Dead Code via Speculative
// Microcode Transformations" (MICRO 2022).
//
// SCC is a front-end technique that speculatively eliminates dead code from
// hot regions resident in the micro-op cache: a small unit (an integer ALU
// plus a register context table) walks hot micro-op sequences once,
// applying constant folding, constant propagation, move elimination and
// branch folding against data/control invariants predicted by the value and
// branch predictors, and stores the compacted stream in a dedicated
// optimized micro-op cache partition that co-exists with the unoptimized
// version. A profitability unit picks which version to stream each fetch;
// invariant violations squash back to the unoptimized copy.
//
// This package is the stable façade over the implementation:
//
//   - Assemble UXA programs (Assemble) or pick one of the 19 built-in
//     workload kernels (Workloads, WorkloadByName).
//   - Configure a machine with BaselineConfig (Table I Icelake-like) or
//     SCCConfig (partitioned micro-op cache + the SCC unit).
//   - NewMachine + (*Machine).Run simulate and return Stats.
//   - Run executes a workload end to end and also returns the energy
//     report; the experiment constructors (Figure6 .. Figure11, Table1,
//     Overheads) regenerate the paper's tables and figures.
//
// See examples/quickstart for a complete program and DESIGN.md for the
// paper-to-implementation map.
package sccsim

import (
	"io"

	"sccsim/internal/asm"
	"sccsim/internal/harness"
	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/runner"
	"sccsim/internal/scc"
	"sccsim/internal/workloads"
)

// Config is the full machine configuration (core widths, queue sizes,
// cache hierarchy, micro-op cache partitioning, SCC transformations).
type Config = pipeline.Config

// Machine is a configured simulated processor bound to one program.
type Machine = pipeline.Machine

// Stats holds every counter a run produces (cycles, committed and
// eliminated micro-ops, fetch-source mix, squashes, energy-model inputs).
type Stats = pipeline.Stats

// Program is an assembled UXA program.
type Program = asm.Program

// Workload is one of the built-in synthetic benchmark kernels.
type Workload = workloads.Workload

// OptLevel selects how much of the SCC transformation ladder is enabled
// (baseline → partitioned → move-elim → fold+prop → branch-fold → full).
type OptLevel = scc.Level

// The optimization ladder, matching the paper artifact's experiment levels.
const (
	LevelBaseline    = scc.LevelBaseline
	LevelPartitioned = scc.LevelPartitioned
	LevelMoveElim    = scc.LevelMoveElim
	LevelFoldProp    = scc.LevelFoldProp
	LevelBranchFold  = scc.LevelBranchFold
	LevelFull        = scc.LevelFull
)

// RunResult is a complete measurement: pipeline stats plus the energy
// report and cache activity.
type RunResult = harness.RunResult

// Options tunes experiment runs (interval length, workload subset, the
// sweep worker count: Parallel = 0 means GOMAXPROCS, 1 runs serially —
// results are order-deterministic either way — plus the observability
// hooks: SampleEvery enables interval telemetry, OnResult receives every
// completed run, Progress streams live sweep status).
type Options = harness.Options

// SweepSummary is the per-run telemetry a sweep aggregates (wall clock,
// committed micro-ops, uops/sec); every experiment result carries one in
// its Timing field.
type SweepSummary = runner.Summary

// Manifest is the machine-readable JSON artifact of one run (config with
// content hash, stats, energy, interval-sampled telemetry); RunResult
// builds one via its Manifest method and the CLIs write it with -json.
type Manifest = obs.Manifest

// SampleInterval is one window of the interval-sampled telemetry series
// (per-interval IPC, uop reduction, fetch-source mix, squash and
// mispredict rates), collected when Options.SampleEvery > 0.
type SampleInterval = obs.Interval

// Assemble assembles UXA source text (see examples/customworkload for the
// dialect) into a Program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// BaselineConfig returns the Table I baseline: an Icelake-like out-of-order
// core with a 2304-micro-op unpartitioned micro-op cache and no SCC.
func BaselineConfig() Config { return pipeline.Icelake() }

// SCCConfig returns the paper's SCC machine at the given optimization
// level: the micro-op cache is split into unoptimized and optimized
// partitions and the SCC unit is enabled per the ladder.
func SCCConfig(level OptLevel) Config { return pipeline.IcelakeSCC(level) }

// NewMachine builds a simulated processor for the program. Populate
// additional memory (large data structures) through m.Oracle.Mem before
// calling Run.
func NewMachine(cfg Config, p *Program) (*Machine, error) { return pipeline.New(cfg, p) }

// Workloads returns the 19 built-in kernels (11 SPEC CPU 2017 stand-ins,
// then 8 PARSEC 3.0 stand-ins).
func Workloads() []Workload { return workloads.All() }

// WorkloadByName finds a built-in kernel ("perlbench", "mcf", ...).
func WorkloadByName(name string) (Workload, bool) { return workloads.ByName(name) }

// Run executes one workload under one configuration and returns the full
// measurement (stats + energy).
func Run(cfg Config, w Workload, opts Options) (*RunResult, error) {
	return harness.RunOne(cfg, w, opts)
}

// noSession runs each figure on its own: the façade's figure functions
// share no runs between calls.
var noSession *harness.Session

// Figure6 regenerates Figure 6 (committed-uop reduction, normalized
// execution time and squash overhead across the optimization ladder).
func Figure6(opts Options) (*harness.Fig6, error) { return noSession.Fig6(opts) }

// Figure7 regenerates Figure 7 (micro-op fetch-source mix).
func Figure7(opts Options) (*harness.Fig7, error) { return noSession.Fig7(opts) }

// Figure8 regenerates Figure 8 (normalized energy).
func Figure8(opts Options) (*harness.Fig8, error) { return noSession.Fig8(opts) }

// Figure9 regenerates Figure 9 (H3VP vs EVES value-predictor sensitivity).
func Figure9(opts Options) (*harness.Fig9, error) { return noSession.Fig9(opts) }

// Figure10 regenerates Figure 10 (micro-op cache partition-size
// sensitivity).
func Figure10(opts Options) (*harness.Fig10, error) { return noSession.Fig10(opts) }

// Figure11 regenerates Figure 11 (constant-width sensitivity and the
// live-out census).
func Figure11(opts Options) (*harness.Fig11, error) { return noSession.Fig11(opts) }

// Extension regenerates the future-work extension comparison (FP and
// complex-integer compaction, default-off in the paper configuration).
func Extension(opts Options) (*harness.Ext, error) { return noSession.Ext(opts) }

// SimPointSweep estimates every workload's whole-program IPC from
// SimPoint representatives under full SCC, simulating each interval
// once. A detailed warmup walk measures every interval whose warmup
// checkpoint Options.SnapshotDir lacks, all of them without a store,
// and persists those checkpoints; every other representative restores
// its checkpoint as its own scheduler job, across Options.Parallel
// workers. Estimates are bit-equal to the serial detailed pass.
func SimPointSweep(opts Options) (*harness.SimPointSweep, error) {
	return harness.SimPointSweepRun(opts)
}

// Table1 writes the baseline configuration table (Table I).
func Table1(w io.Writer) { harness.WriteTable1(w) }

// Overheads writes the SCC area / peak-power overhead model (§VII-B).
func Overheads(w io.Writer) { harness.WriteOverhead(w) }
